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
    "Certificate",
    "CertificateError",
    "certified_decision",
    "extract_certificate",
    "verify_certificate",
]
