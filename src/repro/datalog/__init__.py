"""Datalog engine: semi-naive evaluation, PWL-stratum scheduling, and
stratified negation (the paper's "mild negation")."""

from .negation import (
    negation_stratification,
    stratified_answers,
    stratified_fixpoint,
)
from .seminaive import (
    SemiNaiveResult,
    SemiNaiveRound,
    datalog_answers,
    seminaive,
    seminaive_rounds,
    stream_datalog_answers,
)
from .strata import (
    Strata,
    StratifiedResult,
    compute_strata,
    stratified_seminaive,
)

__all__ = [
    "seminaive",
    "seminaive_rounds",
    "SemiNaiveResult",
    "SemiNaiveRound",
    "datalog_answers",
    "stream_datalog_answers",
    "compute_strata",
    "Strata",
    "stratified_seminaive",
    "StratifiedResult",
    "negation_stratification",
    "stratified_fixpoint",
    "stratified_answers",
]
