"""Reasoning algorithms: the space-bounded searches of Section 4.3 and
the per-tuple drivers that assemble certain answers from them."""

from .certificate import (
    Certificate,
    CertificateError,
    certified_decision,
    extract_certificate,
    verify_certificate,
)
from .answers import (
    UnsupportedProgramError,
    is_certain_answer,
    stream_proof_tree_answers,
)
from .pwl_ward import PWLDecision, decide_pwl_ward, linear_proof_search
from .state import Frontier, SearchStats, State, SuccessorGenerator
from .ward import WardDecision, and_or_search, decide_ward

__all__ = [
    "is_certain_answer",
    "stream_proof_tree_answers",
    "UnsupportedProgramError",
    "decide_pwl_ward",
    "linear_proof_search",
    "PWLDecision",
    "decide_ward",
    "and_or_search",
    "WardDecision",
    "State",
    "SuccessorGenerator",
    "Frontier",
    "SearchStats",
    "Certificate",
    "CertificateError",
    "certified_decision",
    "extract_certificate",
    "verify_certificate",
]
