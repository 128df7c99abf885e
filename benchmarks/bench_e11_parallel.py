"""E11 (extension) — parallel reasoning (§7, future work 1).

Paper claim (future work): "NLogSpace is contained in the class NC² of
highly parallelizable problems.  This means that reasoning under
piece-wise linear warded sets of TGDs is principally parallelizable...
Our preliminary results are promising, giving evidence that the
parallelization that is theoretically promised is also practically
achievable."

Measured here:

* the per-tuple decisions of a query workload are independent tasks;
  from their measured costs, the LPT makespan gives the multi-core
  scaling curve (speedup/efficiency per worker count) — the shape the
  paper's "preliminary results" refer to;
* the sequential per-tuple driver — with the probe disabled so every
  tuple takes the independent per-decision path — returns exactly the
  semi-naive ground truth;
* work/span analysis: the sequential floor is one tuple's decision,
  a vanishing fraction of total work — high inherent parallelism.
"""

from __future__ import annotations

from itertools import chain

from repro.api import StreamStats
from repro.datalog.seminaive import datalog_answers
from repro.parallel import round_work_span, speedup_curve
from repro.reasoning import decide_pwl_ward, stream_proof_tree_answers
from repro.reasoning.abstraction import star_abstraction

from workloads import node, reachability_query, tc_linear_random

VERTICES = 16
EDGES = 30
SEED = 2019
WORKER_COUNTS = (1, 2, 4, 8, 16)


def _setup():
    program, database = tc_linear_random(VERTICES, EDGES, SEED)
    return program, database, reachability_query()


def test_e11_answers_equal_ground_truth(benchmark, report):
    """The per-tuple driver (probe disabled → all per-tuple) stays exact."""
    program, database, query = _setup()
    truth = datalog_answers(query, database, program)

    def run():
        stats = StreamStats()
        answers = set(chain.from_iterable(stream_proof_tree_answers(
            query, database, program, method="pwl", probe_atoms=0,
            stats=stats,
        )))
        return answers, stats

    answers, stats = benchmark.pedantic(run, rounds=2, iterations=1)
    report(
        "E11: per-tuple certain answers vs semi-naive ground truth",
        ("decided tuples", "answers", "equal to ground truth"),
        [(stats.decided_tuples, len(answers), answers == truth)],
        notes=(
            f"probe disabled: all {stats.decided_tuples} candidate "
            "tuples took the independent per-tuple decision path "
            "(E11b schedules their costs over P workers).",
        ),
    )
    assert answers == truth
    assert stats.decided_tuples > 100


def test_e11_speedup_curve(benchmark, report):
    """LPT makespan over the measured per-tuple decision costs."""
    program, database, query = _setup()
    oracle = star_abstraction(database, program.single_head())
    domain = [node(i) for i in range(VERTICES)]
    pairs = [(x, y) for x in domain for y in domain if x != y]

    costs = [
        decide_pwl_ward(
            query, pair, database, program, oracle=oracle
        ).stats.visited
        for pair in pairs
    ]
    points = benchmark(speedup_curve, costs, WORKER_COUNTS)

    work = sum(costs)
    span = max(costs)
    inherent = work / span
    rows = [
        (p.workers, f"{p.makespan:.0f}", f"{p.speedup:.2f}×",
         f"{p.efficiency:.0%}")
        for p in points
    ]
    report(
        "E11b: multi-core scaling curve (LPT makespan over measured "
        "per-tuple costs)",
        ("workers", "makespan (visits)", "speedup", "efficiency"),
        rows,
        notes=(
            f"work = {work} visits across {len(pairs)} independent "
            f"decisions; span = {span} (one tuple) → inherent "
            f"parallelism ≈ {inherent:.1f}×.",
        ),
    )
    speedups = [p.speedup for p in points]
    # Monotone scaling that actually helps: ≥ 1.8× at 4 workers.
    assert speedups == sorted(speedups)
    four = next(p for p in points if p.workers == 4)
    assert four.speedup > 1.8
    # ... and saturates at the workload's inherent parallelism.
    assert speedups[-1] <= inherent + 1e-9


def test_e11_round_parallel_seminaive(benchmark, report):
    """Round-synchronous view: fixpoint depth is the sequential floor."""
    from repro.datalog.seminaive import seminaive

    program, database = tc_linear_random(VERTICES, EDGES, SEED)
    result = benchmark(seminaive, database, program)

    # Model: each round's matches parallelize, rounds are barriers.
    # Uniform per-match cost over the engine's exact per-round counts.
    work, span = round_work_span(
        [[1.0] * max(count, 1) for count in result.per_round_considered]
    )
    report(
        "E11c: round-parallel semi-naive — work vs span",
        ("rounds", "work (matches)", "span (barriers)",
         "parallel headroom"),
        [(result.rounds, int(work), int(span), f"{work / span:.0f}×")],
        notes=(
            "Within each semi-naive round every delta match is "
            "independent (map); rounds are barriers (reduce) — the "
            "map-reduce execution model the paper targets.",
        ),
    )
    assert span <= work
