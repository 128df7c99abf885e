"""Columnar batch kernels: rules compiled to set-at-a-time plans.

The semi-naive interpreter joins tuple at a time through
:mod:`repro.core.match`'s slot-addressed tuple compiler, one binding
per stored tuple over decoded terms; on an interned columnar store that
wastes exactly the representation the store exists for.  This package
compiles each rule once into batch join plans over interned id rows
(:mod:`~repro.kernels.compiler`) and executes them set-at-a-time
(:mod:`~repro.kernels.runtime`), a match being the pinned row with each
step's matched row appended, reproducing the interpreter's round
structure, staged facts, and match counts exactly — a negated literal
included, as a membership test on the laid-out id row.  A conjunctive
query over such a store is read the same way (:mod:`~repro.kernels.query`):
lowered to a rule whose head is the answer tuple, its id rows kept as
answer blocks and decoded when read.

Nobody selects this path: :func:`repro.datalog.seminaive.seminaive_rounds`
runs kernels (one evaluator per stratum) exactly when the store declares
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
from .query import (
    AnswerBlock,
    ordered_answers,
    query_answers,
    stream_query_answers,
)
from .runtime import KernelEvaluator, RowRange, decode_ranges

__all__ = [
    "AnswerBlock",
    "JoinStep",
    "KernelProgram",
    "PinPlan",
    "RuleKernel",
    "compile_kernels",
    "compile_rule",
    "KernelEvaluator",
    "RowRange",
    "decode_ranges",
    "kernel_capable",
    "ordered_answers",
    "query_answers",
    "stream_query_answers",
]
