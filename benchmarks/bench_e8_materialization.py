"""E8 — stratum-boundary materialization (Section 7(3)).

Paper claim: the PWL-induced stratification lets the system "insert
materialization nodes at the boundaries of these strata, materializing
intermediate results.  Notice that this third point is a trade-off, as
it actually raises memory footprint, but in turn can provide a
speed-up."

Measured here, on a deep tower of stacked transitive closures:

* both modes compute the same least fixpoint;
* materialization runs each stratum to completion (per-stratum round
  counts), paying a frozen indexed copy per boundary — the memory side
  of the trade-off;
* the global (streaming-like) evaluation pipelines strata in shared
  rounds; which side is faster is workload-dependent, and the harness
  reports the measured direction rather than assuming one.
"""

from __future__ import annotations

import time

from repro.core.instance import Database
from repro.core.program import Program
from repro.datalog.seminaive import seminaive
from repro.datalog.strata import compute_strata
from repro.lang.parser import parse_query

from workloads import layered_strata_program

LEVELS = 6
CHAIN = 12


def materialized_strata(database, program):
    """``seminaive`` once per ``compute_strata`` layer, its fixpoint
    copied into a fresh ``Database`` at each boundary for the next layer
    — the copy is the cost E8 prices.  Returns the final fixpoint and,
    per stratum, the rounds run and the size of the boundary copy."""
    rounds, sizes = [], []
    for layer in compute_strata(program).layers:
        result = seminaive(database, Program(layer))
        rounds.append(result.rounds)
        database = Database(result.instance)
        sizes.append(len(database))
    return database, rounds, sizes


def test_e8_materialization_tradeoff(benchmark, report):
    program, database = layered_strata_program(LEVELS, n=CHAIN)
    query = parse_query(f"q(X,Y) :- t{LEVELS}(X,Y).")

    materialized, rounds, sizes = benchmark.pedantic(
        materialized_strata, (database, program), rounds=2, iterations=1,
    )
    start = time.perf_counter()
    streaming = seminaive(database, program)
    streaming_seconds = time.perf_counter() - start

    rows = [
        (
            "materialized (per-stratum)",
            len(materialized),
            sum(rounds),
            len(rounds),
            max(sizes),
        ),
        (
            "global (streaming-like)",
            len(streaming.instance),
            streaming.rounds,
            1,
            len(streaming.instance),
        ),
    ]
    report(
        "E8: stratum-boundary materialization trade-off (Section 7(3))",
        ("mode", "fixpoint atoms", "rounds", "strata", "peak boundary copy"),
        rows,
        notes=(
            f"{LEVELS} strata of stacked transitive closures; "
            f"streaming run took {streaming_seconds * 1000:.1f} ms "
            "(see the pytest-benchmark table for the materialized "
            "timing). Same fixpoint either way; materialization pays "
            "one frozen boundary copy per stratum for single-pass "
            "stratum evaluation.",
        ),
    )

    # Same least fixpoint, same answers.
    assert len(materialized) == len(streaming.instance)
    assert query.evaluate(materialized) == streaming.evaluate(query)
    # The stratification is real: one layer per closure tower.
    assert len(rounds) == len(compute_strata(program).layers)
    assert len(rounds) >= LEVELS
    # Each boundary copy is at least the database — the footprint cost.
    assert min(sizes) >= len(database)


def test_e8_streaming_baseline(benchmark):
    program, database = layered_strata_program(LEVELS, n=CHAIN)
    result = benchmark.pedantic(
        seminaive, (database, program), rounds=2, iterations=1,
    )
    assert result.rounds > 0


def test_e8_deeper_towers_stay_correct(benchmark, report):
    """Depth sweep: correctness and per-stratum rounds at every depth."""
    rows = []
    for levels in (2, 4, 6, 8):
        program, database = layered_strata_program(levels, n=8)
        query = parse_query(f"q(X,Y) :- t{levels}(X,Y).")
        materialized, rounds, _ = materialized_strata(database, program)
        streaming = seminaive(database, program)
        equal = query.evaluate(materialized) == streaming.evaluate(query)
        rows.append((levels, sum(rounds), streaming.rounds, equal))

    program, database = layered_strata_program(4, n=8)
    benchmark(materialized_strata, database, program)

    report(
        "E8b: depth sweep — materialized vs global rounds",
        ("strata", "materialized rounds", "global rounds", "equal fixpoint"),
        rows,
        notes=(
            "Global evaluation pipelines strata within shared rounds, so "
            "its round count is lower; materialization trades the "
            "boundary copies for strictly stratum-local work.",
        ),
    )
    assert all(equal for _, _, _, equal in rows)
