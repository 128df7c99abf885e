"""Columnar batch kernels: rules compiled to set-at-a-time plans.

The semi-naive interpreter joins atom-by-atom through Python
substitution dicts; on an interned columnar store that wastes exactly
the representation the store exists for.  This package compiles each
rule once into batch join plans over interned id rows
(:mod:`~repro.kernels.compiler`) and executes them set-at-a-time
(:mod:`~repro.kernels.runtime`), reproducing the interpreter's round
structure, staged facts, and match counts exactly.

Nobody selects this path: :func:`repro.datalog.seminaive.seminaive_rounds`
runs kernels exactly when the store declares
:attr:`~repro.core.store.FactStore.kernel_capable` (columnar,
sharded) and the interpreter otherwise, so ``store="instance"`` is the
ground-truth reference the property suite and ``bench_kernel_compile``
compare the kernels against.
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
