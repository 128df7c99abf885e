"""API benchmark — compile-once-query-many vs. per-query recompilation.

The ``repro.api`` session layer claims that serving many queries
against one program amortizes everything that does not depend on the
query: parsing/classification/stratification (``CompiledProgram``),
the star abstraction, and — for the fixpoint engines — the saturated
materialization itself.  Measured here on the E2 chain scenario
(linear transitive closure, WARD ∩ PWL):

* **legacy** — one ``certain_answers(q, D, Σ)`` call per query, the
  pre-session workflow: every call re-classifies the program and
  re-runs the fixpoint;
* **session** — one ``Session`` that loads the program once and
  answers the same queries from its caches;
* **first-answer latency** — time until a cold stream yields its first
  tuple, vs. the time to materialize the full set.

Writes ``benchmarks/results/BENCH_api.json`` with the raw numbers (the
CI artifact) in addition to the usual report table.
"""

from __future__ import annotations

import time

from repro.api import Session, certain_answers

from conftest import write_json_result
from workloads import tc_linear_chain

CHAIN_N = 64
QUERY_TEXTS = tuple(
    [
        "q(X,Y) :- t(X,Y).",
        "q(X) :- t(X,Y).",
        "q(Y) :- t(X,Y).",
        "q() :- t(X,Y).",
        "q(X,Z) :- t(X,Y), t(Y,Z).",
        "q(X) :- e(X,Y), t(Y,Z).",
        "q(X,Y) :- e(X,Y).",
        "q(Y) :- t(n0,Y).",
        "q(X) :- t(X,n8).",
        "q() :- t(n0,n8).",
        "q(X,Y) :- t(X,Y), e(X,Y).",
        "q(Z) :- e(n0,Y), t(Y,Z).",
    ]
)


def _legacy_rows(program, database, queries):
    """One eager facade call per query: recompile + rerun every time."""
    rows = []
    for query in queries:
        start = time.perf_counter()
        answers = certain_answers(query, database, program)
        rows.append(
            {"answers": len(answers), "seconds": time.perf_counter() - start}
        )
    return rows


def _session_rows(session, queries):
    rows = []
    for query in queries:
        start = time.perf_counter()
        stream = session.query(query)
        answers = stream.to_set()
        rows.append(
            {
                "answers": len(answers),
                "seconds": time.perf_counter() - start,
                "from_cache": stream.stats.from_cache,
            }
        )
    return rows


def test_bench_api_compile_once(report):
    from repro.lang.parser import parse_query

    program, database = tc_linear_chain(CHAIN_N)
    queries = [parse_query(text) for text in QUERY_TEXTS]

    legacy_rows = _legacy_rows(program, database, queries)
    legacy_total = sum(row["seconds"] for row in legacy_rows)

    session = Session()
    compiled = session.compile(program)
    session.add_facts(database)
    # First-answer latency on a cold session (nothing materialized yet).
    cold_stream = session.query(queries[0])
    first_start = time.perf_counter()
    cold_stream.first(1)
    first_answer_seconds = time.perf_counter() - first_start
    full_start = time.perf_counter()
    cold_stream.to_set()
    rest_seconds = time.perf_counter() - full_start

    session_rows = _session_rows(session, queries)
    session_total = sum(row["seconds"] for row in session_rows)

    # The compile-once guarantee, asserted in the benchmark as well.
    assert compiled.analysis_runs == 1
    assert all(
        legacy["answers"] == cached["answers"]
        for legacy, cached in zip(legacy_rows, session_rows)
    )

    speedup = legacy_total / session_total if session_total else float("inf")
    payload = {
        "scenario": f"E2 linear chain, n={CHAIN_N}",
        "queries": len(queries),
        "legacy_per_query_seconds": [r["seconds"] for r in legacy_rows],
        "legacy_total_seconds": legacy_total,
        "session_per_query_seconds": [r["seconds"] for r in session_rows],
        "session_total_seconds": session_total,
        "session_cache_hits": sum(
            1 for r in session_rows if r["from_cache"]
        ),
        "speedup": speedup,
        "first_answer_seconds": first_answer_seconds,
        "full_set_seconds": first_answer_seconds + rest_seconds,
        "analysis_runs": compiled.analysis_runs,
    }
    write_json_result("BENCH_api.json", payload)

    report(
        "API — compile once, query many (E2 chain scenario)",
        ["workflow", "queries", "total s", "s/query", "speedup"],
        [
            [
                "legacy (recompile per query)",
                len(queries),
                f"{legacy_total:.3f}",
                f"{legacy_total / len(queries):.4f}",
                "1.0x",
            ],
            [
                "session (compile once)",
                len(queries),
                f"{session_total:.3f}",
                f"{session_total / len(queries):.4f}",
                f"{speedup:.1f}x",
            ],
        ],
        notes=(
            f"first answer after {first_answer_seconds * 1e3:.2f} ms on a "
            "cold stream (full set: "
            f"{(first_answer_seconds + rest_seconds) * 1e3:.2f} ms); "
            f"classification/stratification ran {compiled.analysis_runs} "
            f"time(s) for {len(queries) + 1} queries",
        ),
    )

    assert speedup > 1.0
