"""Out-of-core storage under a memory budget, plus warm-start restarts.

The headline claims of ``repro.storage.sharded``, measured end-to-end:

* **Budget adherence** — saturating a workload whose working set is a
  multiple of the configured budget keeps the store's own *resident
  shard estimate* (``stats["resident_estimate"]``: rows held in memory
  × an estimated per-row cost — not process memory) at or below the
  budget, within the documented one-shard slack: the enforcement loop
  never evicts the shard it is currently touching.  The run is
  asserted to execute as compiled kernels, which join those same
  shards in place and hold no copy the estimate cannot see; that the
  process's traced peak follows the budget under kernels is pinned by
  ``tests/unit/test_sharded.py::TestBudgetUnderKernels``.
* **Exactness across the spill boundary** — the budgeted, constantly
  evicting/reloading store answers digest-equal to a fully resident
  :class:`~repro.storage.ColumnarStore` ground truth.
* **Warm starts** — a :class:`~repro.server.ReasoningService` restarted
  over the same ``--state-dir`` answers its *first* query from the
  restored fixpoint cache, without resaturating.

Raw rows land in ``benchmarks/results/BENCH_oocore.json`` — written
*before* the assertions, so a failing run still uploads its evidence.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

from repro.benchsuite.report import answer_digest
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_program, parse_query
from repro.server import ReasoningService
from repro.storage import ShardedStore, sharded_store_factory

from conftest import write_json_result

#: Smoke scale (CI-safe): a random digraph whose transitive closure is
#: a few thousand path facts — an order of magnitude over the budget.
VERTICES = 48
EDGES = 96
SEED = 2019

#: The byte budget the resident shard estimate must respect.
BUDGET = 64 * 1024
NUM_SHARDS = 16

#: The working set must actually be out-of-core at this scale.
MIN_PRESSURE = 2.0

QUERY = "q(X, Y) :- path(X, Y)."
RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def _program_text() -> str:
    rng = random.Random(SEED)
    edges = {
        (f"v{rng.randrange(VERTICES)}", f"v{rng.randrange(VERTICES)}")
        for _ in range(EDGES)
    }
    # A spine guarantees long reachability chains (a big closure).
    edges.update((f"v{i}", f"v{i + 1}") for i in range(0, VERTICES - 1, 2))
    facts = "\n".join(f"edge({x}, {y})." for x, y in sorted(edges))
    return facts + "\n" + RULES


def test_oocore_budget_and_warm_start(benchmark, report):
    program_text = _program_text()
    program, database = parse_program(program_text)
    query = parse_query(QUERY)

    # -- ground truth: fully resident columnar saturation ----------------
    start = time.perf_counter()
    truth = seminaive(database, program, store="columnar")
    truth_seconds = time.perf_counter() - start
    truth_answers = query.evaluate(truth.instance)
    truth_digest = answer_digest(truth_answers)

    # The working set, measured in the budget's own currency: the
    # resident shard estimate of an *unbudgeted* sharded copy.
    unbudgeted = ShardedStore(truth.instance, num_shards=NUM_SHARDS)
    working_set = unbudgeted.stats["resident_estimate"]
    pressure = working_set / BUDGET
    # The documented overshoot bound: the touched shard is never
    # evicted, so residency may exceed the budget by one shard.
    shard_slack = working_set // NUM_SHARDS + 4096

    # -- budgeted out-of-core saturation ---------------------------------
    with tempfile.TemporaryDirectory(prefix="oocore-") as spill_dir:
        factory = sharded_store_factory(
            BUDGET, Path(spill_dir), num_shards=NUM_SHARDS
        )
        start = time.perf_counter()
        budgeted = seminaive(database, program, store=factory)
        budgeted_seconds = time.perf_counter() - start
        store = budgeted.instance
        stats_after_chase = dict(store.stats)

        budgeted_answers = query.evaluate(store)
        stats_after_query = dict(store.stats)

        def bound_probe():
            probe = parse_query("q(X) :- path(v0, X).")
            return probe.evaluate(store)

        benchmark.pedantic(bound_probe, rounds=3, iterations=1)

    # -- warm start: kill + restart over the same state directory --------
    state_dir = Path(tempfile.mkdtemp(prefix="oocore-state-"))
    service_factory = sharded_store_factory(BUDGET, None,
                                            num_shards=NUM_SHARDS)
    first = ReasoningService(
        program_text, store=service_factory, state_dir=state_dir
    )
    start = time.perf_counter()
    cold = first.query(QUERY)
    cold_seconds = time.perf_counter() - start
    first.checkpoint()
    del first  # the "kill": nothing survives but the state directory

    second = ReasoningService(
        program_text, store=service_factory, state_dir=state_dir
    )
    start = time.perf_counter()
    warm = second.query(QUERY)
    warm_seconds = time.perf_counter() - start

    resident = stats_after_chase["resident_estimate"]
    resident_post = stats_after_query["resident_estimate"]
    budgeted_digest = answer_digest(budgeted_answers)
    warm_digest = answer_digest(warm.answers)
    cold_digest = answer_digest(cold.answers)

    report(
        f"Out-of-core budgeted storage ({VERTICES} vertices / "
        f"~{EDGES} edges, budget {BUDGET // 1024} KiB, "
        f"{NUM_SHARDS} shards)",
        ("configuration", "seconds", "resident", "spilled", "answers"),
        [
            (
                "columnar (fully resident)",
                f"{truth_seconds:.3f}",
                f"{working_set / 1024:.0f} KiB (est.)",
                "-",
                str(len(truth_answers)),
            ),
            (
                f"sharded @ {BUDGET // 1024} KiB budget",
                f"{budgeted_seconds:.3f}",
                f"{resident / 1024:.0f} KiB (est.)",
                f"{stats_after_chase['spill_bytes'] / 1024:.0f} KiB "
                f"/ {stats_after_chase['spill_pages']} pages",
                str(len(budgeted_answers)),
            ),
            (
                "warm start (restored cache)",
                f"{warm_seconds:.3f}",
                "-",
                "-",
                str(len(warm.answers)),
            ),
        ],
        notes=(
            f"working set {pressure:.1f}x the budget; "
            f"{stats_after_chase['evictions']} eviction(s), "
            f"{stats_after_query['reloads']} reload(s); cold first "
            f"query {cold_seconds:.3f}s vs warm {warm_seconds:.3f}s",
        ),
    )

    # Evidence first, judgement second: the artifact must exist even
    # when an assertion below fails (CI uploads it with if: always()).
    write_json_result(
        "BENCH_oocore.json",
        {
            "schema": "repro/bench-oocore/v1",
            "scale": {
                "vertices": VERTICES,
                "edges": EDGES,
                "seed": SEED,
            },
            "memory_budget": BUDGET,
            "num_shards": NUM_SHARDS,
            "working_set_estimate": working_set,
            "pressure": pressure,
            "shard_slack": shard_slack,
            "resident_after_chase": resident,
            "resident_after_queries": resident_post,
            "stats_after_chase": stats_after_chase,
            "stats_after_queries": stats_after_query,
            "seconds": {
                "columnar": truth_seconds,
                "budgeted": budgeted_seconds,
                "cold_first_query": cold_seconds,
                "warm_first_query": warm_seconds,
            },
            "answers": len(truth_answers),
            "digests": {
                "columnar": truth_digest,
                "sharded": budgeted_digest,
                "service_cold": cold_digest,
                "service_warm": warm_digest,
            },
            "warm_started": second.warm_started,
            "warm_from_cache": warm.stats["from_cache"],
            "cold_from_cache": cold.stats["from_cache"],
        },
    )

    # The scale really is out-of-core relative to the budget.
    assert pressure >= MIN_PRESSURE, (
        f"working set only {pressure:.1f}x the budget — raise the scale "
        "or lower the budget"
    )
    # The budget claim is about the kernel path: it must not pass by
    # silently interpreting.
    assert budgeted.exec_mode == "kernel"
    # Budget adherence (one-shard slack is the documented overshoot).
    assert resident <= BUDGET + shard_slack, (
        f"resident estimate {resident} exceeds budget {BUDGET} "
        f"beyond the one-shard slack {shard_slack}"
    )
    assert resident_post <= BUDGET + shard_slack
    assert stats_after_chase["spilled_shards"] > 0
    assert stats_after_chase["evictions"] > 0
    # Exactness across the spill boundary.
    assert budgeted_digest == truth_digest
    # Warm start: the restarted service never resaturated.
    assert cold.stats["from_cache"] is False
    assert second.warm_started is True
    assert warm.stats["from_cache"] is True, (
        "warm-started service resaturated on its first query"
    )
    assert warm_digest == cold_digest == answer_digest(
        (tuple(str(t) for t in row) for row in truth_answers)
    )
