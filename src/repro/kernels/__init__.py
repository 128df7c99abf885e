"""Columnar batch kernels: rules compiled to set-at-a-time plans.

The semi-naive interpreter joins atom-by-atom through Python
substitution dicts; on an interned columnar store that wastes exactly
the representation the store exists for.  This package compiles each
rule once into batch join plans over interned id rows
(:mod:`~repro.kernels.compiler`) and executes them set-at-a-time
(:mod:`~repro.kernels.runtime`), reproducing the interpreter's round
structure, staged facts, and match counts exactly — the interpreter
remains the fallback for stores that do not declare
:attr:`~repro.storage.base.FactStore.kernel_capable`, and the
ground-truth oracle the property suite compares against.

Selection is the planner's ``exec`` dimension
(``--exec kernel/interpret/auto``); the engine-level dispatch lives in
:func:`repro.datalog.seminaive.seminaive_rounds`.
"""

from ..storage import kernel_capable
from .compiler import (
    JoinStep,
    KernelProgram,
    PinPlan,
    RuleKernel,
    compile_kernels,
    compile_rule,
)
from .runtime import KernelEvaluator

__all__ = [
    "JoinStep",
    "KernelProgram",
    "PinPlan",
    "RuleKernel",
    "compile_kernels",
    "compile_rule",
    "KernelEvaluator",
    "kernel_capable",
]
