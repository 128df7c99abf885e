"""Concurrent serving under churn: throughput, latency, and exactness.

The acceptance bar of :mod:`repro.server`: N concurrent clients issue
queries over real sockets while a writer client applies a 100-batch
churn stream — and **every** answer set must be digest-equal to a
from-scratch evaluation over the EDB version the query was admitted
under.  Zero requests may drop or error; old versions must be
garbage-collected once their readers drain.

The measured side: sustained queries/second across the whole run and
client-observed p50/p99 latency, archived (before any assertion) in
``benchmarks/results/BENCH_server.json``.
"""

from __future__ import annotations

import random
import threading
import time

from repro.benchsuite import answer_digest, generate_churn
from repro.core.instance import Database
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_query
from repro.server import ReasoningClient, ReasoningServer, ReasoningService
from repro.workloads import LatencyHistogram

from conftest import write_json_result

VERTICES = 64
EDGES = 128
CLUSTERS = 8
STEPS = 100
CHURN = 0.1
SEED = 2019

#: Concurrent reader clients (the ISSUE floor is 8).
CLIENTS = 8

#: The mixed read workload: mostly bound probes (the cheap, frequent
#: shape), a full-TC scan every few iterations (the expensive one).
BOUND_QUERY = "q(X) :- t(n0, X)."
REACH_QUERY = "q(X) :- reach(X)."
FULL_QUERY = "q(X, Y) :- t(X, Y)."
QUERY_MIX = (BOUND_QUERY, BOUND_QUERY, REACH_QUERY, FULL_QUERY)


def _delta_lines(step) -> str:
    """One ChangeSet as the wire's +atom/-atom text block."""
    lines = [f"-{atom}." for atom in step.retracts]
    lines += [f"+{atom}." for atom in step.inserts]
    return "\n".join(lines)


def test_server_concurrency_under_churn(benchmark, report):
    churn = generate_churn(
        vertices=VERTICES,
        edges=EDGES,
        clusters=CLUSTERS,
        steps=STEPS,
        churn=CHURN,
        seed=SEED,
    )
    service = ReasoningService(
        churn.scenario.program,
        facts=churn.scenario.database,
        store="columnar",
    )
    server = ReasoningServer(service, port=0)
    host, port = server.address
    server.serve_in_thread()

    observations = []  # (query_text, admitted version, answer rows)
    latencies = LatencyHistogram()  # client-observed, per query
    update_records = []  # server payloads, one per batch
    errors = []
    observe_lock = threading.Lock()
    start_gate = threading.Barrier(CLIENTS + 1)
    writer_done = threading.Event()

    def writer():
        try:
            with ReasoningClient(host, port) as client:
                start_gate.wait(timeout=30)
                for step in churn.steps:
                    payload = client.update(_delta_lines(step))
                    update_records.append(payload)
        except Exception as error:
            errors.append(("writer", repr(error)))
        finally:
            writer_done.set()

    def reader(index):
        rng = random.Random(SEED + index)
        try:
            with ReasoningClient(host, port) as client:
                start_gate.wait(timeout=30)
                while True:
                    done_before = writer_done.is_set()
                    query_text = rng.choice(QUERY_MIX)
                    begin = time.perf_counter()
                    result = client.query(query_text)
                    elapsed = time.perf_counter() - begin
                    latencies.record(elapsed)
                    with observe_lock:
                        observations.append(
                            (query_text, result.version, result.answers)
                        )
                    if done_before:
                        return  # one final post-churn pass completed
        except Exception as error:
            errors.append((f"reader-{index}", repr(error)))

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(index,))
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    wall_seconds = time.perf_counter() - wall_start
    stuck = [thread.name for thread in threads if thread.is_alive()]

    final_stats = service.stats()
    server.close()

    # -- sequential ground truth, per installed version -------------------
    # Replay the churn stream exactly as the server admitted it: the
    # update payloads say which batches were effective and what version
    # each installed.
    state = set(churn.scenario.database)
    states = {0: frozenset(state)}
    replay_consistent = True
    for step, payload in zip(churn.steps, update_records):
        retracted = [atom for atom in step.retracts if atom in state]
        inserted = [atom for atom in step.inserts if atom not in state]
        if not retracted and not inserted:
            replay_consistent &= not payload["effective"]
            continue
        replay_consistent &= bool(payload["effective"])
        state.difference_update(retracted)
        state.update(inserted)
        states[payload["version"]] = frozenset(state)

    program = churn.scenario.program
    queried_versions = sorted({version for _, version, _ in observations})
    fixpoints = {
        version: seminaive(Database(states[version]), program).instance
        for version in queried_versions
        if version in states
    }
    expected_digests = {}
    mismatches = []
    unknown_versions = []
    for query_text, version, answers in observations:
        if version not in fixpoints:
            unknown_versions.append(version)
            continue
        key = (query_text, version)
        if key not in expected_digests:
            expected_digests[key] = answer_digest(
                parse_query(query_text).evaluate(fixpoints[version])
            )
        if answer_digest(answers) != expected_digests[key]:
            mismatches.append((query_text, version))

    queries_answered = len(observations)
    qps = queries_answered / wall_seconds if wall_seconds else 0.0
    p50 = latencies.p50
    p99 = latencies.p99

    # One client round-trip as the pytest-benchmark row.
    bench_service = ReasoningService(
        churn.scenario.program,
        facts=churn.scenario.database,
        store="columnar",
    )
    bench_server = ReasoningServer(bench_service, port=0)
    bench_server.serve_in_thread()
    bench_host, bench_port = bench_server.address
    with ReasoningClient(bench_host, bench_port) as bench_client:
        benchmark.pedantic(
            lambda: bench_client.query(BOUND_QUERY), rounds=3, iterations=5
        )
    bench_server.close()

    report(
        "Concurrent serving under churn "
        f"({CLIENTS} clients, {STEPS} update batches, "
        f"{VERTICES} vertices / {EDGES} edges)",
        ("metric", "value"),
        [
            ("queries answered", queries_answered),
            ("updates applied", len(update_records)),
            ("wall seconds", f"{wall_seconds:.2f}"),
            ("sustained QPS", f"{qps:.1f}"),
            ("p50 latency", f"{p50 * 1000:.2f} ms"),
            ("p99 latency", f"{p99 * 1000:.2f} ms"),
            ("versions queried", len(queried_versions)),
            ("digest mismatches", len(mismatches)),
            ("request errors", len(errors)),
            (
                "versions alive at end",
                final_stats["snapshots"]["live_versions"],
            ),
        ],
        notes=(
            "every answer checked digest-equal to from-scratch "
            "evaluation on its admitted EDB version; updates and "
            "queries raced over real sockets",
        ),
    )

    # Written before any assertion: a failing run still uploads its
    # evidence (the CI step archives results/ with if: always()).
    write_json_result(
        "BENCH_server.json",
        {
            "schema": "repro/bench-server/v1",
            "scenario": churn.scenario.meta,
            "clients": CLIENTS,
            "update_batches": STEPS,
            "store": "columnar",
            "queries_answered": queries_answered,
            "updates_applied": len(update_records),
            "wall_seconds": wall_seconds,
            "sustained_qps": qps,
            "latency_p50_ms": p50 * 1000,
            "latency_p99_ms": p99 * 1000,
            "latency": latencies.summary(),
            "versions_installed": service.current_version,
            "versions_queried": queried_versions,
            "digest_mismatches": mismatches[:10],
            "request_errors": errors[:10],
            "stuck_threads": stuck,
            "replay_consistent": replay_consistent,
            "unknown_versions": unknown_versions[:10],
            "query_mix": sorted(set(QUERY_MIX)),
            "server_stats": final_stats,
        },
    )

    assert not stuck, f"threads did not finish: {stuck}"
    assert not errors, f"requests errored: {errors[:5]}"
    assert len(update_records) == STEPS
    assert replay_consistent, "server effectivity disagreed with replay"
    assert not unknown_versions, (
        f"answers admitted under unknown versions: {unknown_versions[:5]}"
    )
    assert not mismatches, (
        f"answers diverged from ground truth at {mismatches[:5]}"
    )
    # The run must actually have interleaved: readers observed multiple
    # versions, and every reader answered at least once per batch epoch.
    assert len(queried_versions) > 1, "no query raced an update"
    assert queries_answered >= CLIENTS
    # Old versions are collected once their readers drain: only the
    # head (plus at most a straggler being released) stays live.
    assert final_stats["snapshots"]["live_versions"] <= 2
