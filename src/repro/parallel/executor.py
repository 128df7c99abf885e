"""Multi-worker certain-answer computation.

``parallel_certain_answers`` mirrors the sequential per-tuple driver
(:func:`repro.reasoning.answers.stream_proof_tree_answers`) for the
proof-tree engines, but decides the candidate tuples concurrently:

* the chase probe, the star-abstraction oracle and the prepared
  decider come from that driver's own preamble, once, up front;
* every candidate tuple is an independent decision task — the
  NLogSpace machine per tuple — dispatched to a thread pool;
* the result set is the union of probe answers and accepted tuples,
  so it equals the sequential result by construction, regardless of
  scheduling.

Python threads share one interpreter, so wall-clock scaling is
GIL-bound; the *shape* observable (how evenly work distributes, what
the workload's inherent parallelism is) is reported via the measured
per-tuple costs — see :mod:`repro.parallel.workplan` and benchmark E11.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..reasoning.answers import prepare_proof_tree_answers, proof_tree_method

__all__ = ["ParallelReport", "parallel_certain_answers"]

Answer = Tuple[Constant, ...]


@dataclass
class ParallelReport:
    """Answers plus the per-tuple cost profile of the parallel run."""

    answers: Set[Answer]
    method: str
    workers: int
    probe_answers: int
    decided_tuples: int
    per_tuple_cost: Dict[Answer, int] = field(default_factory=dict)

    @property
    def total_work(self) -> int:
        return sum(self.per_tuple_cost.values())

    @property
    def span(self) -> int:
        """The most expensive single decision — the parallel floor."""
        return max(self.per_tuple_cost.values(), default=0)


def parallel_certain_answers(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
    *,
    workers: int = 4,
    method: str = "auto",
    probe_depth: int = 3,
    probe_atoms: int = 20000,
    report: bool = False,
    **engine_kwargs,
):
    """Compute cert(q, D, Σ) with per-tuple decisions on a thread pool.

    Supports the proof-tree methods (``"pwl"``, ``"ward"``, or
    ``"auto"`` dispatching between them); other program classes have no
    per-tuple parallel structure and belong to
    :func:`repro.api.certain_answers`.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if method == "auto":
        method = proof_tree_method(program)
    probe_answers, pending, decide = prepare_proof_tree_answers(
        query, database, program, method=method, probe_depth=probe_depth,
        probe_atoms=probe_atoms, **engine_kwargs,
    )
    candidates = list(pending)
    per_tuple_cost: Dict[Answer, int] = {}
    answers: Set[Answer] = set(probe_answers)

    def decide_one(candidate: Answer) -> Tuple[Answer, bool, int]:
        decision = decide(candidate)
        return candidate, decision.accepted, decision.stats.visited

    if candidates:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for candidate, accepted, cost in pool.map(decide_one, candidates):
                per_tuple_cost[candidate] = cost
                if accepted:
                    answers.add(candidate)

    result = ParallelReport(
        answers=answers,
        method=method,
        workers=workers,
        probe_answers=len(probe_answers),
        decided_tuples=len(candidates),
        per_tuple_cost=per_tuple_cost,
    )
    return result if report else result.answers
