"""E2 — data complexity of WARD ∩ PWL answering (Theorem 4.2).

Paper claim: CQ answering under piece-wise linear warded TGDs is
NLogSpace-complete in data complexity — the non-deterministic machine
holds a *single CQ of bounded size* (node-width ≤ f_WARD∩PWL, which is
independent of the database), versus the PTime chase that materializes
a polynomially growing instance.

Measured here, on linear transitive closure over growing chains:

* the largest CQ the search ever holds (``max_width``) stays constant
  as │D│ grows — the working-configuration size is data-independent;
* visited configurations grow roughly linearly (reachability-like),
  while the chase materializes Θ(n²) atoms;
* decisions agree with ground truth on chains and random graphs.
"""

from __future__ import annotations

import tracemalloc

from repro.chase import chase
from repro.datalog.seminaive import datalog_answers
from repro.reasoning import decide_pwl_ward
from repro.reasoning.abstraction import star_abstraction

from workloads import (
    node,
    reachability_query,
    tc_linear_chain,
    tc_linear_random,
)

SIZES = (8, 16, 32, 64, 128)
BENCH_SIZE = 64


def _peak_memory(action) -> int:
    """Peak allocated bytes while running *action* (tracemalloc)."""
    tracemalloc.start()
    try:
        action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _series():
    query = reachability_query()
    rows = []
    for n in SIZES:
        program, database = tc_linear_chain(n)
        positive = decide_pwl_ward(
            query, (node(0), node(n - 1)), database, program
        )
        negative = decide_pwl_ward(
            query, (node(n - 1), node(0)), database, program
        )
        materialized = chase(database, program, max_atoms=100000)
        rows.append(
            {
                "n": n,
                "db": len(database),
                "accepted": positive.accepted,
                "rejected": not negative.accepted,
                "visited": positive.stats.visited,
                "max_width": positive.stats.max_width,
                "bound": positive.width_bound,
                "chase_atoms": len(materialized.instance),
            }
        )
    return rows


def test_e2_space_scaling_series(benchmark, report):
    rows = _series()
    query = reachability_query()
    program, database = tc_linear_chain(BENCH_SIZE)
    benchmark(
        decide_pwl_ward,
        query,
        (node(0), node(BENCH_SIZE - 1)),
        database,
        program,
    )

    report(
        "E2: WARD ∩ PWL space scaling vs database size (Theorem 4.2)",
        (
            "chain n", "|D|", "visited", "max CQ width", "width bound f",
            "chase atoms",
        ),
        [
            (
                r["n"], r["db"], r["visited"], r["max_width"], r["bound"],
                r["chase_atoms"],
            )
            for r in rows
        ],
        notes=(
            "max CQ width is the node-width observable: constant in |D| "
            "(NLogSpace working set), while the chase materializes "
            "quadratically many atoms (PTime).",
        ),
    )

    # Correctness at every size.
    assert all(r["accepted"] for r in rows)
    assert all(r["rejected"] for r in rows)
    # Space shape: the held CQ never grows with the database ...
    widths = {r["max_width"] for r in rows}
    assert len(widths) == 1
    bounds = {r["bound"] for r in rows}
    assert len(bounds) == 1
    # ... visited configurations grow sub-quadratically (reachability),
    # while chase materialization grows super-linearly.
    first, last = rows[0], rows[-1]
    scale = last["n"] / first["n"]
    assert last["visited"] / first["visited"] < 2 * scale
    assert last["chase_atoms"] / first["chase_atoms"] > 4 * scale


def test_e2_chase_baseline(benchmark):
    program, database = tc_linear_chain(BENCH_SIZE)
    result = benchmark(chase, database, program, max_atoms=100000)
    assert result.saturated
    assert len(result.instance) > BENCH_SIZE * BENCH_SIZE / 4


def test_e2_memory_footprint(benchmark, report):
    """Peak allocations: the search, its oracle, and the chase.

    The §7 claim behind the fragment is the "significant effect on the
    memory footprint"; tracemalloc makes it directly observable.  Three
    quantities, each traced alone: the linear proof-tree *search* with
    the star abstraction handed in as ``oracle=`` (what Theorem 4.8's
    machine holds: bounded CQs plus the visited set), building that
    *oracle* (on linear TC it has exactly the chase's atoms, so timing
    ``decide_pwl_ward`` building its own would charge a Θ(chase)
    structure to the search), and the *chase* materialization.
    """
    query = reachability_query()
    rows, ratios = [], []
    for n in (32, 64, 128):
        program, database = tc_linear_chain(n)
        normalized = program.single_head()
        oracle = star_abstraction(database, normalized)

        def search():
            return decide_pwl_ward(
                query, (node(0), node(n - 1)), database, program,
                oracle=oracle,
            )

        # Once untraced: what depends only on Σ (the compiled rule
        # matchers, memoised on the rules) is not the search's working
        # set and would otherwise be charged to the first size.
        assert search().accepted
        search_peak = _peak_memory(search)
        oracle_peak = _peak_memory(
            lambda: star_abstraction(database, normalized)
        )
        chase_peak = _peak_memory(
            lambda: chase(database, program, max_atoms=100000)
        )
        ratios.append(chase_peak / search_peak)
        rows.append(
            (n, f"{search_peak / 1024:.0f} KiB",
             f"{oracle_peak / 1024:.0f} KiB",
             f"{chase_peak / 1024:.0f} KiB",
             f"{ratios[-1]:.1f}×")
        )

    program, database = tc_linear_chain(BENCH_SIZE)
    benchmark.pedantic(
        decide_pwl_ward,
        (query, (node(0), node(BENCH_SIZE - 1)), database, program),
        rounds=2, iterations=1,
    )
    report(
        "E2c: peak allocations — linear proof search vs its oracle vs "
        "chase materialization",
        ("chain n", "search peak", "oracle peak", "chase peak",
         "chase / search"),
        rows,
        notes=(
            "tracemalloc peaks, each traced alone; the search (oracle "
            "handed in) holds bounded CQs and a visited set of O(n) "
            "canonical states, the chase holds the Θ(n²) materialized "
            "closure — and so does the star-abstraction oracle on "
            "linear TC, which is why it has its own column.",
        ),
    )
    # The gap must widen as the database grows.
    assert ratios[0] < ratios[1] < ratios[2]


def test_e2_random_graph_agreement(benchmark, report):
    """Decisions agree with semi-naive ground truth on a random graph."""
    query = reachability_query()
    program, database = tc_linear_random(vertices=16, edges=30, seed=2019)
    truth = datalog_answers(query, database, program)

    pairs = [
        (node(a), node(b)) for a in range(0, 16, 3) for b in range(1, 16, 4)
        if a != b
    ]

    def decide_all():
        return {
            pair: decide_pwl_ward(query, pair, database, program).accepted
            for pair in pairs
        }

    decisions = benchmark.pedantic(decide_all, rounds=2, iterations=1)
    agree = sum(
        1 for pair, accepted in decisions.items()
        if accepted == (pair in truth)
    )
    positives = sum(1 for pair in pairs if pair in truth)
    report(
        "E2b: per-tuple decisions vs semi-naive ground truth (random graph)",
        ("pairs checked", "certain", "agreements"),
        [(len(pairs), positives, agree)],
    )
    assert agree == len(pairs)
    assert 0 < positives < len(pairs)
