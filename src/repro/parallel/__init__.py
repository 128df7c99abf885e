"""Parallel execution of WARD ∩ PWL reasoning (Section 7, future work (1)).

"NLogSpace is contained in the class NC² of highly parallelizable
problems.  This means that reasoning under piece-wise linear warded
sets of TGDs is principally parallelizable, unlike warded sets of TGDs.
We plan to exploit this for the parallel execution of reasoning tasks
in both multi-core settings and in the map-reduce model.  In fact, we
are currently in the process of implementing a multi-core
implementation ..."

Two views of that claim are made executable here:

* :mod:`workplan <repro.parallel.workplan>` — work/span accounting:
  the per-tuple certainty decisions of a query workload are mutually
  independent, so their parallel makespan under *P* workers is a
  scheduling problem over measured per-tuple costs.  ``speedup_curve``
  reports the multi-core scaling shape the paper's preliminary results
  hint at.
* :mod:`executor <repro.parallel.executor>` — an actual multi-worker
  ``certain_answers``: the candidate tuples are decided concurrently by
  a thread pool, with the star-abstraction oracle computed once and
  shared read-only.  Answers are identical to
  :func:`repro.api.certain_answers` by construction.

Nothing in ``src/`` imports this package: it is a leaf that benchmark
E11 and the examples drive.
"""

from .executor import ParallelReport, parallel_certain_answers
from .workplan import (
    SpeedupPoint,
    greedy_makespan,
    round_work_span,
    speedup_curve,
)

__all__ = [
    "parallel_certain_answers",
    "ParallelReport",
    "greedy_makespan",
    "speedup_curve",
    "SpeedupPoint",
    "round_work_span",
]
