"""The chase procedure: triggers, runner, termination control."""

from .runner import (
    ChaseEvent,
    ChaseResult,
    ChaseRun,
    chase,
    chase_events,
    stream_chase_answers,
)
from .termination import (
    AlwaysFire,
    DepthPolicy,
    LinearForestPolicy,
    TerminationPolicy,
)
from .trigger import Trigger, all_triggers, fire, triggers_for_new_atom

__all__ = [
    "chase",
    "chase_events",
    "stream_chase_answers",
    "ChaseEvent",
    "ChaseResult",
    "ChaseRun",
    "Trigger",
    "all_triggers",
    "triggers_for_new_atom",
    "fire",
    "TerminationPolicy",
    "AlwaysFire",
    "DepthPolicy",
    "LinearForestPolicy",
]
