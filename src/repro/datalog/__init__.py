"""Datalog engine: semi-naive evaluation, one stratum at a time when the
program has negated literals (stratified negation, the paper's "mild
negation"), over the strata of :func:`compute_strata`."""

from .seminaive import (
    SemiNaiveResult,
    SemiNaiveRound,
    datalog_answers,
    seminaive,
    seminaive_rounds,
    stream_datalog_answers,
)
from .strata import Strata, compute_strata

__all__ = [
    "seminaive",
    "seminaive_rounds",
    "SemiNaiveResult",
    "SemiNaiveRound",
    "datalog_answers",
    "stream_datalog_answers",
    "compute_strata",
    "Strata",
]
