"""Synthetic benchmark suites emulating the families the paper surveys
(ChaseBench, iBench, iWarded, DBpedia, industrial) — [SIM] substitutes,
because those suites are not redistributable (``scenario.py`` says what
each one keeps) — plus the Section 1.2 recursion-statistics analyzer."""

from .chasebench import generate_chasebench
from .churn import ChurnScenario, generate_churn
from .dbpedia import example_33_program, generate_dbpedia
from .ibench import generate_ibench
from .industrial import generate_industrial
from .iwarded import RECURSION_FLAVOURS, generate_iwarded
from .scenario import Scenario, answer_digest
from .stats import (
    SUITES,
    RecursionStatistics,
    classify_corpus,
    default_corpus,
    suite_corpus,
)

__all__ = [
    "Scenario",
    "ChurnScenario",
    "generate_churn",
    "generate_iwarded",
    "RECURSION_FLAVOURS",
    "generate_ibench",
    "generate_chasebench",
    "generate_dbpedia",
    "example_33_program",
    "generate_industrial",
    "classify_corpus",
    "RecursionStatistics",
    "default_corpus",
    "SUITES",
    "suite_corpus",
    "answer_digest",
]
