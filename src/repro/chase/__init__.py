"""The chase procedure: triggers, runner, termination control, chase graph."""

from .graph import ChaseGraph, DerivationEdge
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
    IsomorphismPolicy,
    TerminationPolicy,
    atom_shape,
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
    "ChaseGraph",
    "DerivationEdge",
    "TerminationPolicy",
    "AlwaysFire",
    "DepthPolicy",
    "IsomorphismPolicy",
    "atom_shape",
]
