"""Reasoning algorithms: the space-bounded searches of Section 4.3 and
the per-tuple drivers that assemble certain answers from them.  An
accepting run of the linear search is its own certificate
(Theorem 4.8): ``decide_pwl_ward(..., trace=True).trace`` is the
sequence of configurations, each a successor of the one before."""

from .answers import (
    UnsupportedProgramError,
    is_certain_answer,
    stream_proof_tree_answers,
)
from .pwl_ward import PWLDecision, decide_pwl_ward
from .state import Frontier, SearchStats, State, SuccessorGenerator
from .ward import WardDecision, decide_ward

__all__ = [
    "is_certain_answer",
    "stream_proof_tree_answers",
    "UnsupportedProgramError",
    "decide_pwl_ward",
    "PWLDecision",
    "decide_ward",
    "WardDecision",
    "State",
    "SuccessorGenerator",
    "Frontier",
    "SearchStats",
]
