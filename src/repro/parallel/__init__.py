"""Parallel execution of WARD ∩ PWL reasoning (Section 7, future work (1)).

"NLogSpace is contained in the class NC² of highly parallelizable
problems.  This means that reasoning under piece-wise linear warded
sets of TGDs is principally parallelizable, unlike warded sets of TGDs.
We plan to exploit this for the parallel execution of reasoning tasks
in both multi-core settings and in the map-reduce model.  In fact, we
are currently in the process of implementing a multi-core
implementation ..."

The claim is made measurable as work/span accounting
(:mod:`workplan <repro.parallel.workplan>`): the per-tuple certainty
decisions of a query workload are mutually independent, so their
parallel makespan under *P* workers is a scheduling problem over
per-tuple costs.  Benchmark E11's speedup curve is the LPT makespan
(``speedup_curve``) over the costs the sequential search measures —
``decide_pwl_ward(...).stats.visited`` for each candidate that
:func:`repro.reasoning.answers.stream_proof_tree_answers` decides.

Nothing in ``src/`` imports this package: it is a leaf that benchmark
E11 and the examples drive.
"""

from .workplan import (
    SpeedupPoint,
    greedy_makespan,
    round_work_span,
    speedup_curve,
)

__all__ = [
    "greedy_makespan",
    "speedup_curve",
    "SpeedupPoint",
    "round_work_span",
]
