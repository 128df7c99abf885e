"""Incremental maintenance vs recompute-from-scratch on churn workloads.

The headline claim of ``repro.incremental``: a session whose EDB keeps
changing should pay per-update work proportional to the *change*, not
to the database.  Measured here on the churn scenario family (E2-scale
random graph, ≥100-update stream, ≤10% churn per update, insertions
*and retractions* in every batch):

* **incremental** — one long-lived :class:`repro.api.Session`; every
  update goes through ``Session.apply`` and upgrades the cached
  fixpoint (DRed + the semi-naive fast path) which then serves the
  per-step query from cache;
* **recompute** — what the session did before this subsystem existed:
  every update throws the materialization away and the per-step query
  re-runs semi-naive evaluation from scratch.

Answers are asserted identical at every step (and the final stores
atom-identical), and the floor is a count, not a clock: the body
matches maintenance examined, summed over the stream, must stay below
the matches per-update recomputation considered.  Wall-clock seconds
and the speedup are recorded in
``benchmarks/results/BENCH_incremental.json``, not asserted — the
committed e2e trajectory (``serve_churn_ivm``) is what gates time.
"""

from __future__ import annotations

import time

from repro.api import Session
from repro.benchsuite import answer_digest, generate_churn
from repro.core.instance import Database
from repro.datalog.seminaive import seminaive

from conftest import write_json_result

#: E2 scale: the largest E2 data-complexity size (n=128), dense enough
#: that recomputation hurts; 100 updates at ≤10% churn each.
VERTICES = 128
EDGES = 256
STEPS = 100
CHURN = 0.1
SEED = 2019

#: The per-step query (the TC reachability workload of E2).
QUERY_INDEX = 0


def _run_incremental(churn, query):
    session = Session()
    compiled = session.compile(churn.scenario.program)
    session.add_facts(churn.scenario.database)
    plan = session.plan(query, program=compiled, method="datalog")
    assert plan.maintainable, "churn program must be in the fragment"
    per_step = []
    start = time.perf_counter()
    session.query(query, program=compiled, method="datalog").to_set()
    warmup = time.perf_counter() - start
    maintained = []
    start = time.perf_counter()
    for step in churn.steps:
        report = session.apply(step)
        assert not report.fallbacks, report.fallbacks
        maintained.append(report)
        stream = session.query(query, program=compiled, method="datalog")
        answers = stream.to_set()
        assert stream.stats.from_cache, "maintenance must serve the cache"
        per_step.append(answers)
    seconds = time.perf_counter() - start
    fixpoint = session.get_fixpoint(plan)
    totals = {
        "overdeleted": sum(r.totals().overdeleted for r in maintained),
        "rederived": sum(r.totals().rederived for r in maintained),
        "removed": sum(r.totals().removed for r in maintained),
        "derived_added": sum(r.totals().derived_added for r in maintained),
        "matches": sum(r.totals().matches for r in maintained),
    }
    return {
        "seconds": seconds,
        "warmup_seconds": warmup,
        "answers": per_step,
        "fixpoint": fixpoint,
        "resident_bytes": fixpoint.memory_report().total_bytes,
        "maintenance_totals": totals,
    }


def _run_recompute(churn, query):
    """The pre-IVM behaviour: every update invalidates, every query
    re-saturates from scratch."""
    program = churn.scenario.program
    edb = Database(churn.scenario.database)
    per_step = []
    last = None
    considered = 0
    start = time.perf_counter()
    for step in churn.steps:
        edb.discard_all(step.retracts)
        edb.add_all(step.inserts)
        result = seminaive(Database(edb), program)
        considered += result.considered
        last = result.instance
        per_step.append(frozenset(query.evaluate(last)))
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "considered": considered,
        "answers": per_step,
        "fixpoint": last,
        "resident_bytes": last.memory_report().total_bytes,
    }


def test_incremental_churn_vs_recompute(benchmark, report):
    churn = generate_churn(
        vertices=VERTICES, edges=EDGES, steps=STEPS, churn=CHURN, seed=SEED
    )
    query = churn.scenario.queries[QUERY_INDEX]
    retractions = sum(len(step.retracts) for step in churn.steps)
    assert retractions >= STEPS, "every update batch must retract facts"

    incremental = _run_incremental(churn, query)
    recompute = _run_recompute(churn, query)

    divergences = [
        index
        for index, (got, expected) in enumerate(
            zip(incremental["answers"], recompute["answers"])
        )
        if frozenset(got) != expected
    ]
    stores_equal = set(incremental["fixpoint"]) == set(
        recompute["fixpoint"]
    )
    changed = sum(
        1
        for before, after in zip(
            incremental["answers"], incremental["answers"][1:]
        )
        if frozenset(before) != frozenset(after)
    )
    speedup = recompute["seconds"] / incremental["seconds"]
    matches = incremental["maintenance_totals"]["matches"]

    # One maintained update as the pytest-benchmark row (fresh session
    # per round so the step is always applied to a saturated cache).
    def one_step():
        session = Session()
        compiled = session.compile(churn.scenario.program)
        session.add_facts(churn.scenario.database)
        session.query(query, program=compiled, method="datalog").to_set()
        session.apply(churn.steps[0])

    benchmark.pedantic(one_step, rounds=2, iterations=1)

    report(
        "Incremental maintenance vs recompute-from-scratch (churn, "
        f"E2 scale: {VERTICES} vertices / {EDGES} edges, {STEPS} updates, "
        f"≤{CHURN:.0%} churn)",
        ("mode", "seconds", "per update", "resident", "speedup"),
        [
            (
                "incremental (Session.apply)",
                f"{incremental['seconds']:.3f}",
                f"{1000 * incremental['seconds'] / STEPS:.1f} ms",
                f"{incremental['resident_bytes'] / 1024:.0f} KiB",
                f"{speedup:.1f}x",
            ),
            (
                "recompute (seminaive per update)",
                f"{recompute['seconds']:.3f}",
                f"{1000 * recompute['seconds'] / STEPS:.1f} ms",
                f"{recompute['resident_bytes'] / 1024:.0f} KiB",
                "1.0x",
            ),
        ],
        notes=(
            f"{retractions} retraction(s) and "
            f"{sum(len(s.inserts) for s in churn.steps)} insertion(s) "
            "exercised; answers asserted identical at every update; "
            f"{matches} maintenance matches vs {recompute['considered']} "
            "considered by recomputation; "
            f"maintenance totals: {incremental['maintenance_totals']}",
        ),
    )

    # The artifact is written before any assertion so a failing run
    # still uploads its evidence (the CI step archives it if: always()).
    write_json_result(
        "BENCH_incremental.json",
        {
            "schema": "repro/bench-incremental/v1",
            "scenario": churn.scenario.meta,
            "query": str(query),
            "updates": STEPS,
            "retractions": retractions,
            "insertions": sum(len(s.inserts) for s in churn.steps),
            "incremental_seconds": incremental["seconds"],
            "incremental_warmup_seconds": incremental["warmup_seconds"],
            "recompute_seconds": recompute["seconds"],
            "speedup": speedup,
            "recompute_considered": recompute["considered"],
            "answers_equal_every_step": not divergences,
            "divergent_steps": divergences[:10],
            "final_stores_equal": stores_equal,
            "answers_changed_steps": changed,
            "final_answer_digest": answer_digest(
                incremental["answers"][-1]
            ),
            "final_atoms": len(incremental["fixpoint"]),
            "incremental_resident_bytes": incremental["resident_bytes"],
            "recompute_resident_bytes": recompute["resident_bytes"],
            "incremental_memory_report": incremental[
                "fixpoint"
            ].memory_report().as_dict(),
            "maintenance_totals": incremental["maintenance_totals"],
        },
    )

    # Exactness, asserted in-suite: answers agree at every single step,
    # the maintained store equals the recomputed one atom-for-atom, and
    # the churn actually moved the answers (retractions included).
    assert not divergences, f"divergence at update(s) {divergences[:10]}"
    assert stores_equal, "maintained store != recomputed store"
    assert changed > 0, "churn stream must actually move the answers"
    assert matches < recompute["considered"], (
        f"maintenance examined {matches} body matches, recomputation "
        f"only {recompute['considered']}"
    )
