"""Demand-driven (magic-set) point queries vs full saturation.

The headline claim of the ``rewrite`` plan dimension: a bound-argument
query should pay for the facts it *demands*, not for the whole least
fixpoint.  Measured here on point queries (``q(Y) :- t(c, Y)``) over
two scenario families:

* **churn** — the clustered E2-scale graph of the incremental suite
  (16 weakly-connected company-group clusters): demand from one vertex
  stays inside its cluster while full saturation closes every cluster
  and the two non-recursive strata on top;
* **iWarded (linear)** — the full-fragment recursion block of the
  iWarded generator (linear transitive closure over a sparse random
  graph; the existential core is outside the rewriting's full-program
  fragment and is not part of either side's evaluation).

Each side runs the ``datalog`` engine in its own cold
:class:`repro.api.Session` — the claim is demand vs full saturation
*from nothing*; in one shared session the default ``rewrite="auto"``
would read the other side's full fixpoint and derive nothing.  Only the
plan's ``rewrite`` dimension differs.  Answers are asserted identical
(and again identical after churn update batches, under a forced
``rewrite="magic"`` whose materialization must fall back to
recomputation), so the derived-fact reduction is measured on provably
equal answers.  Raw rows land in
``benchmarks/results/BENCH_magic.json`` — written *before* the
assertions, so a failing run still uploads its evidence.
"""

from __future__ import annotations

import time

from repro.api import Session
from repro.benchsuite import answer_digest, generate_churn
from repro.benchsuite.iwarded import generate_iwarded
from repro.core.program import Program
from repro.lang.parser import parse_query

from conftest import write_json_result

#: Churn at the incremental-benchmark scale; a handful of update steps
#: exercise the magic↔IVM fallback path end to end.
CHURN_VERTICES = 128
CHURN_EDGES = 256
CHURN_CLUSTERS = 16
CHURN_STEPS = 4

#: iWarded linear recursion over a sparse graph (demand stays local).
IW_VERTICES = 96
IW_EDGES = 120

SEED = 2019

#: CI-safe floor; the JSON artifact records the measured reductions
#: (≈19x churn, ≈100x iWarded locally).
MIN_REDUCTION = 3.0


def _families():
    churn = generate_churn(
        vertices=CHURN_VERTICES,
        edges=CHURN_EDGES,
        clusters=CHURN_CLUSTERS,
        steps=CHURN_STEPS,
        seed=SEED,
    )
    iwarded = generate_iwarded(
        seed=SEED, flavour="linear",
        vertices=IW_VERTICES, edges=IW_EDGES,
    )
    # The demand fragment is full programs: keep the scenario's full
    # recursion block (the existential warded core would route the
    # plan to a proof-tree engine, not the datalog fixpoint).
    iw_full = Program(
        [tgd for tgd in iwarded.program if tgd.is_full()],
        name=f"{iwarded.program.name}-full",
    )
    return (
        {
            "family": "churn",
            "program": churn.scenario.program,
            "database": churn.scenario.database,
            "query": parse_query("q(Y) :- t(n17,Y)."),
            "meta": churn.scenario.meta,
            "steps": churn.steps,
        },
        {
            "family": "iwarded-linear",
            "program": iw_full,
            "database": iwarded.database,
            "query": parse_query("q(Y) :- iw_t(n5,Y)."),
            "meta": iwarded.meta,
            "steps": (),
        },
    )


def _measure(case):
    """One family: unrewritten vs magic, a cold session per side."""

    def cold_session():
        session = Session()
        session.compile(case["program"])
        session.add_facts(case["database"])
        return session

    plain_session, demand_session = cold_session(), cold_session()

    def run(session, rewrite):
        start = time.perf_counter()
        stream = session.query(
            case["query"], method="datalog", rewrite=rewrite,
        )
        answers = frozenset(stream.to_set())
        seconds = time.perf_counter() - start
        return {
            "answers": answers,
            "seconds": seconds,
            "derived": stream.stats.derived,
            "rounds": stream.stats.rounds,
            "rewrite": stream.stats.rewrite,
        }

    plain = run(plain_session, "none")
    magic = run(demand_session, "auto")  # cold: auto runs the demand program
    row = {
        "family": case["family"],
        "query": str(case["query"]),
        "scenario_meta": case["meta"],
        "answers": len(plain["answers"]),
        "answers_equal": plain["answers"] == magic["answers"],
        "answer_digest": answer_digest(plain["answers"]),
        "plain_derived": plain["derived"],
        "magic_derived": magic["derived"],
        "reduction": (
            plain["derived"] / magic["derived"]
            if magic["derived"]
            else float(plain["derived"] or 1)
        ),
        "plain_seconds": plain["seconds"],
        "magic_seconds": magic["seconds"],
        "plain_rounds": plain["rounds"],
        "magic_rounds": magic["rounds"],
        "magic_plan_resolved": magic["rewrite"],
        "post_update_checks": 0,
        "post_update_equal": True,
        "fallback_recorded": None,
    }
    # Update batches: the magic materialization must fall back (the
    # recorded reason) and the recomputed demand answers must keep
    # matching the unrewritten plan at every step.
    fallbacks = True
    equal = True
    for changes in case["steps"]:
        plain_session.apply(changes)
        report = demand_session.apply(changes)
        fallbacks = fallbacks and any(
            "demand-specific" in reason for _, reason in report.fallbacks
        )
        after_plain = run(plain_session, "none")
        after_magic = run(demand_session, "magic")
        equal = equal and (
            after_plain["answers"] == after_magic["answers"]
        )
        row["post_update_checks"] += 1
    if case["steps"]:
        row["post_update_equal"] = equal
        row["fallback_recorded"] = fallbacks
    return row


def test_magic_demand_point_queries(benchmark, report):
    rows = [_measure(case) for case in _families()]

    # One magic point query as the pytest-benchmark row (fresh session
    # per round so the engine really runs).
    cases = _families()

    def one_point_query():
        session = Session()
        compiled = session.compile(cases[0]["program"])
        session.add_facts(cases[0]["database"])
        session.query(
            cases[0]["query"], program=compiled, method="datalog"
        ).to_set()

    benchmark.pedantic(one_point_query, rounds=2, iterations=1)

    report(
        "Demand (magic-set) point queries vs full saturation "
        f"(churn {CHURN_VERTICES}v/{CHURN_EDGES}e/{CHURN_CLUSTERS} "
        f"clusters; iWarded linear {IW_VERTICES}v/{IW_EDGES}e)",
        ("family", "derived (full)", "derived (magic)", "reduction",
         "answers", "equal"),
        [
            (
                row["family"],
                row["plain_derived"],
                row["magic_derived"],
                f"{row['reduction']:.1f}x",
                row["answers"],
                row["answers_equal"],
            )
            for row in rows
        ],
        notes=(
            f"≥{MIN_REDUCTION}x asserted per family; answers asserted "
            "identical before and after churn update batches (magic "
            "fixpoints fall back to recomputation, reason recorded)",
        ),
    )

    # The artifact is written before any assertion so a failing run
    # still uploads its evidence (the CI step archives it if: always()).
    write_json_result(
        "BENCH_magic.json",
        {
            "schema": "repro/bench-magic/v1",
            "min_reduction_asserted": MIN_REDUCTION,
            "families": rows,
        },
    )

    for row in rows:
        assert row["magic_plan_resolved"] == "magic", row["family"]
        assert row["answers_equal"], (
            f"{row['family']}: magic answers diverge from the "
            "unrewritten plan"
        )
        assert row["post_update_equal"], (
            f"{row['family']}: divergence after Session.apply"
        )
        if row["fallback_recorded"] is not None:
            assert row["fallback_recorded"], (
                f"{row['family']}: apply did not record the magic "
                "fallback"
            )
        assert row["reduction"] >= MIN_REDUCTION, (
            f"{row['family']}: only {row['reduction']:.1f}x fewer "
            f"derived facts (need ≥{MIN_REDUCTION}x)"
        )
