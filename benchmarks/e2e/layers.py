"""The traced replicates: per-layer numbers, measured from outside.

Nothing in ``src/`` is instrumented.  A layer's time is taken by calling
its public function from here with a clock on either side, or read from
the ``stats`` a response already carries; spans are kept in memory as
``[id, name, start, end, parent, op]`` rows and handed back to the runner,
which writes them out once the run is over.

For a serve workload the trace has two halves over the same frozen op
list: *wire* replicates against a real daemon, traced inside the window
(every response decoded, a client round-trip span and the server's own
``wall_ms`` inside it; then ``/proc`` CPU, pings and the ``stats`` op),
and one *in-process* replay through ``protocol.decode_request`` →
``handle_request`` → ``encode_response`` on a ``ReasoningService`` built
from the same program file, with ``parse_query`` and ``Session.plan``
timed on their own.  The share of the primary op's median wire round
trip that its median decode + handle + encode and a bare ``ping`` round
trip do not add up to is ``trace.unattributed_pct`` (signed: the replay
runs in another process than the daemon, and may run slower).  For a one-op child it is the
share of the op's wall time that no span around a call into a layer
covers.  ``trace.overhead_pct`` compares the fastest traced window with
the fastest untraced one.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Optional, Tuple

from common import Spans, compile_forced, percentile
from workloads import WARM_QUERY, Workload

#: Every per-layer metric, with its unit.  Each workload reports all of
#: them; a layer the workload bypasses reads 0.
PER_LAYER: Dict[str, str] = {
    "server.transport_us": "us",
    "server.ping_rtt_us": "us",
    "server.decode_us": "us",
    "server.handle_us": "us",
    "server.encode_us": "us",
    "server.response_bytes": "bytes",
    "server.update_service_ms": "ms",
    "server.migrated_fixpoints": "count",
    "server.migration_fallbacks": "count",
    "server.daemon_cpu_ms_per_op": "ms",
    "server.p99_ms": "ms",
    "lang.parse_query_us": "us",
    "lang.parse_program_ms": "ms",
    "api.plan_us": "us",
    "api.compile_ms": "ms",
    "api.cached_read_us": "us",
    "api.answer_rows_per_read": "count",
    "api.fixpoint_hit_ratio": "ratio",
    "rewriting.magic_rewrite_us": "us",
    "datalog.demand_eval_ms": "ms",
    "datalog.demand_derived": "count",
    "datalog.saturate_ms": "ms",
    "datalog.rounds": "count",
    "datalog.derived": "count",
    "kernels.batches": "count",
    "kernels.us_per_derived": "us",
    "storage.load_ms": "ms",
    "storage.cached_scan_ms": "ms",
    "storage.fixpoint_bytes_per_atom": "bytes",
    "storage.edb_bytes": "bytes",
    "incremental.maintain_ms": "ms",
    "incremental.overdeleted": "count",
    "incremental.rederived": "count",
    "incremental.matches": "count",
    "incremental.recompute_ms": "ms",
    "reasoning.abstraction_ms": "ms",
    "reasoning.probe_answers": "count",
    "reasoning.decided_tuples": "count",
    "prooftree.us_per_decided": "us",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


#: Counts that depend on the inputs alone: identical on every run of the
#: same seed (marked ``=`` in the README; test_determinism.py checks).
EXACT = (
    "server.response_bytes",
    "server.migrated_fixpoints",
    "server.migration_fallbacks",
    "api.answer_rows_per_read",
    "api.fixpoint_hit_ratio",
    "datalog.demand_derived",
    "datalog.rounds",
    "datalog.derived",
    "kernels.batches",
    "storage.fixpoint_bytes_per_atom",
    "storage.edb_bytes",
    "incremental.overdeleted",
    "incremental.rederived",
    "incremental.matches",
    "reasoning.probe_answers",
    "reasoning.decided_tuples",
)


def _median(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _timed(function, *args, repeat: int = 3) -> float:
    """Median wall time of ``function(*args)`` in seconds."""
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        function(*args)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _program_costs(text: str) -> Dict[str, float]:
    from repro.api import Session
    from repro.lang.parser import parse_program

    program, _ = parse_program(text)
    return {
        "lang.parse_program_ms": _timed(parse_program, text) * 1e3,
        "api.compile_ms":
            _timed(lambda: compile_forced(Session(), program)) * 1e3,
    }


# -- serve workloads ---------------------------------------------------------


def _inprocess_replay(workload: Workload, inputs, spans: Spans) -> Dict[str, list]:
    """Replay warm-up and ops through the protocol functions in this
    process; returns per-op durations (seconds) keyed by span name."""
    from repro.lang.parser import parse_query
    from repro.server import ReasoningService
    from repro.server.protocol import (
        decode_request, encode_response, handle_request,
    )

    service = ReasoningService(inputs.program, store="instance")
    for frame in inputs.warmup:
        handle_request(service, decode_request(frame.decode()))
    clock = time.perf_counter
    columns: Dict[str, list] = {
        name: [] for name in (
            "server.decode", "lang.parse_query", "api.plan",
            "server.handle", "server.encode", "bytes",
        )
    }
    for index, op in enumerate(inputs.ops):
        line = op.frame.decode()
        t0 = clock()
        request = decode_request(line)
        t1 = clock()
        t2 = t3 = t1
        if op.kind == "read":
            parsed = parse_query(op.text)
            t2 = clock()
            service.session.plan(parsed, **workload.options)
            t3 = clock()
        response = handle_request(service, request)
        t4 = clock()
        # Timing digits vary in length run to run; zeroed, the response
        # size is a count that repeats exactly.
        response["wall_ms"] = 0.0
        if "stats" in response:
            response["stats"]["wall_ms"] = 0.0
        t5 = clock()
        encoded = encode_response(response)
        t6 = clock()
        root = spans.add("inprocess.op", t0, t6, None, index)
        for name, start, end in (
            ("server.decode", t0, t1), ("lang.parse_query", t1, t2),
            ("api.plan", t2, t3), ("server.handle", t3, t4),
            ("server.encode", t5, t6),
        ):
            spans.add(name, start, end, root, index)
            columns[name].append(end - start)
        columns["bytes"].append(len(encoded) + 1)
    return columns


def _incremental(inputs) -> Dict[str, float]:
    """``Session.apply`` over the workload's own change list, and the
    from-scratch closure it competes with, both in this process."""
    from repro.api import Session
    from repro.incremental import ChangeSet, MaintenanceStats
    from repro.lang.parser import parse_program

    program, database = parse_program(inputs.program)
    session = Session(store="instance")
    session.compile(program)
    session.add_facts(database)
    session.query(WARM_QUERY, rewrite="none").to_set()
    totals = MaintenanceStats()
    maintain = []
    for op in inputs.ops:
        if op.kind == "update":
            changes = ChangeSet.parse(op.text)
            started = time.perf_counter()
            report = session.apply(changes)
            maintain.append(time.perf_counter() - started)
            totals.merge(report.totals())

    def recompute():
        fresh = Session(store="instance")
        fresh.compile(program)
        fresh.add_facts(session.edb)
        fresh.query(WARM_QUERY, rewrite="none").to_set()

    return {
        "incremental.maintain_ms": _median(maintain, 1e3),
        "incremental.overdeleted": totals.overdeleted,
        "incremental.rederived": totals.rederived,
        "incremental.matches": totals.matches,
        "incremental.recompute_ms": _timed(recompute) * 1e3,
    }


def _magic_rewrite_us(inputs) -> float:
    from repro.lang.parser import parse_program, parse_query
    from repro.rewriting.magic import binding_pattern, magic_rewrite

    program, _ = parse_program(inputs.program)
    patterns = {}
    for op in inputs.ops:
        if op.kind == "read":
            query = parse_query(op.text)
            patterns.setdefault(binding_pattern(query), query)
    return _median(
        (_timed(magic_rewrite, program, query) for query in patterns.values()),
        1e6,
    )


def _overhead_pct(traced: list, plain: list) -> float:
    """Fastest traced window against the fastest untraced one."""
    fastest = min(r.window_s for r in plain)
    return 100.0 * (min(r.window_s for r in traced) - fastest) / fastest


def trace_serve(workload: Workload, seed: int, plain, count: int):
    from replicate import prepare

    inputs, replicate = prepare(workload, seed)
    logs = [Spans() for _ in range(count)]
    ran = traced = [replicate(spans=log) for log in logs]
    if plain is None:
        plain = [replicate() for _ in range(count)]
        ran = traced + plain
    failed = sum(r.failed for r in ran)
    attempted = len(inputs.ops) * len(ran)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    logs = [log for log, r in zip(logs, traced) if r.detail is not None]
    traced = [r for r in traced if r.detail is not None]
    plain = [r for r in plain if r.detail is not None]
    if not traced or not plain:
        return attempted, failed, metrics, []
    # Wire timings per op come from the fastest untraced replicate (the
    # tracer's work between requests slows the traced ones); responses
    # and counts are the same in every replicate.  Pings, the ``stats``
    # op and the spans come from the fastest traced one.
    fastest = min(range(len(traced)), key=lambda i: traced[i].window_s)
    after = traced[fastest].detail
    wire = min(plain, key=lambda r: r.window_s).detail
    round_trip = wire.latencies
    responses = wire.responses
    service_ms = [response["wall_ms"] for response in responses]
    engine_ms = [
        response.get("stats", {}).get("wall_ms", 0.0) for response in responses
    ]
    spans = Spans()
    columns = _inprocess_replay(workload, inputs, spans)

    kinds = [op.kind for op in inputs.ops]
    reads = [i for i, kind in enumerate(kinds) if kind == "read"]
    updates = [i for i, kind in enumerate(kinds) if kind == "update"]
    primary = [i for i, kind in enumerate(kinds) if kind == workload.primary]
    hits = [i for i in reads if responses[i]["stats"]["from_cache"]]
    misses = [i for i in reads if not responses[i]["stats"]["from_cache"]]
    ping = _median(after.ping_s)

    def column(name, where, scale):
        return _median((columns[name][i] for i in where), scale)

    metrics.update({
        "server.transport_us": _median(
            (round_trip[i] * 1e6 - service_ms[i] * 1e3 for i in reads)),
        "server.ping_rtt_us": ping * 1e6,
        "server.decode_us": column("server.decode", range(len(kinds)), 1e6),
        "server.handle_us": column("server.handle", reads, 1e6),
        "server.encode_us": column("server.encode", reads, 1e6),
        "server.response_bytes": statistics.mean(columns["bytes"][i] for i in reads),
        "server.update_service_ms": _median(service_ms[i] for i in updates),
        "server.migrated_fixpoints": after.stats["migrated_fixpoints_total"],
        "server.migration_fallbacks": after.stats["migration_fallbacks_total"],
        "server.daemon_cpu_ms_per_op": wire.cpu_ms / len(kinds),
        "server.p99_ms": percentile(round_trip, 0.99) * 1e3,
        "lang.parse_query_us": column("lang.parse_query", reads, 1e6),
        "api.plan_us": column("api.plan", reads, 1e6),
        "api.cached_read_us": _median((engine_ms[i] for i in hits), 1e3),
        "api.answer_rows_per_read": statistics.mean(
            responses[i]["count"] for i in reads),
        "api.fixpoint_hit_ratio": len(hits) / len(reads),
        "datalog.demand_eval_ms": _median(engine_ms[i] for i in misses),
        "datalog.demand_derived": sum(
            responses[i]["stats"]["derived"] for i in misses),
        "storage.edb_bytes": after.stats["memory"]["edb_resident_bytes"],
        "trace.overhead_pct": _overhead_pct(traced, plain),
    })
    metrics.update(_program_costs(inputs.program))
    if misses:
        metrics["rewriting.magic_rewrite_us"] = _magic_rewrite_us(inputs)
    if updates:
        metrics.update(_incremental(inputs))
    # Medians over the primary ops, not sums: one burst of interference
    # in either process would otherwise dominate the difference.
    typical = _median(round_trip[i] for i in primary)
    named = ping + _median(
        columns["server.decode"][i] + columns["server.handle"][i]
        + columns["server.encode"][i]
        for i in primary
    )
    metrics["trace.unattributed_pct"] = 100.0 * (typical - named) / typical
    return attempted, failed, metrics, wire_spans(logs[fastest]) + spans.rows


def wire_spans(log: Spans) -> list:
    """A traced wire replicate's span rows, ids prefixed and times made
    relative to its first send."""
    origin = log.rows[0][2]
    return [
        [f"wire{ident}", name, start - origin, end - origin,
         None if parent is None else f"wire{parent}", op]
        for ident, name, start, end, parent, op in log.rows
    ]


# -- one-op children ---------------------------------------------------------


def trace_child(workload: Workload, seed: int, plain, count: int):
    from replicate import prepare

    _, replicate = prepare(workload, seed)
    ran = traced = [replicate(spans=Spans()) for _ in range(count)]
    if plain is None:
        plain = [replicate() for _ in range(count)]
        ran = traced + plain
    attempted, failed = len(ran), sum(r.failed for r in ran)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    traced = [r for r in traced if r.detail is not None]
    plain = [r for r in plain if r.detail is not None]
    if not traced or not plain:
        return attempted, failed, metrics, []
    result = min(traced, key=lambda r: r.window_s).detail
    stats = result["stats"]
    spans = Spans()
    root = spans.add("child.op", 0.0, result["op_s"], None, 0)
    span_ms: Dict[str, float] = {}
    for name, start, end in result["spans"]:
        spans.add(name, start, end, root, 0)
        span_ms[name] = (end - start) * 1e3
    op_ms = result["op_s"] * 1e3
    metrics.update({
        "lang.parse_program_ms": result["parse_program_s"] * 1e3,
        "api.compile_ms": span_ms["api.compile"],
        "storage.load_ms": span_ms["storage.load"],
        "trace.overhead_pct": _overhead_pct(traced, plain),
        "trace.unattributed_pct":
            100.0 * (op_ms - sum(span_ms.values())) / op_ms,
    })
    if workload.name == "batch_saturate":
        metrics.update({
            "datalog.saturate_ms": span_ms["datalog.saturate"],
            "datalog.rounds": stats["rounds"],
            "datalog.derived": stats["derived"],
            "kernels.batches": stats["kernel_batches"],
            "kernels.us_per_derived":
                span_ms["datalog.saturate"] * 1e3 / max(1, stats["derived"]),
            "storage.cached_scan_ms":
                span_ms["storage.scan_mutual"] + span_ms["storage.scan_reach"],
            "storage.fixpoint_bytes_per_atom":
                result["fixpoint_bytes"] / max(1, result["fixpoint_atoms"]),
        })
    else:
        metrics.update({
            "reasoning.abstraction_ms": span_ms["reasoning.abstraction"],
            "reasoning.probe_answers": stats["probe_answers"],
            "reasoning.decided_tuples": stats["decided_tuples"],
            "prooftree.us_per_decided":
                span_ms["prooftree.pairs"] * 1e3 / max(1, stats["decided_tuples"]),
        })
    return attempted, failed, metrics, spans.rows


def trace_workload(
    workload: Workload, seed: int, plain: Optional[list] = None, count: int = 3
) -> Tuple[int, int, dict, list]:
    """(attempted, failed, per-layer metrics with units, span rows).

    *count* traced replicates are run; *plain* are untraced replicates
    of the same inputs to compare them with (the runner passes the ones
    it just measured; left out, *count* of them are run here).
    """
    tracer = trace_serve if workload.kind == "serve" else trace_child
    attempted, failed, values, spans = tracer(workload, seed, plain, count)
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
    return attempted, failed, metrics, spans
