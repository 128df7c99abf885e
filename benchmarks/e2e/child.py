"""The one-op child of ``batch_saturate`` and ``pwl_reason``.

``python child.py WORKLOAD SEED TRACED`` is one replicate: a fresh
interpreter imports :mod:`repro`, generates and parses the workload's
inputs from the seed (all of that is set-up), prints ``READY``, runs the
op once and prints one JSON line — the op's wall time, one span per call
into a layer, answer digests, stats and its own ``VmHWM``.

Each span is a clock on either side of one call into a public function;
whatever of the op no span covers (constructing the session, the loop
itself) is what ``trace.unattributed_pct`` reports.  With ``TRACED=1``
the per-layer extras that are not part of the op (program parsing, the
fixpoint's memory report) are measured after the op clock has stopped.
"""

from __future__ import annotations

import json
import os
import sys
import time

from common import compile_forced, peak_rss_mb
from oracle import digest
from workloads import BY_NAME, Workload, child_program

SPANS = {
    "batch_saturate":
        ("datalog.saturate", "storage.scan_mutual", "storage.scan_reach"),
    "pwl_reason": ("prooftree.pairs", "prooftree.seeds"),
}


def run_op(workload: Workload, text: str, program, database, traced: bool) -> dict:
    from repro.api import Session

    batch = workload.name == "batch_saturate"
    clock = time.perf_counter
    spans = []  # [name, start, end], seconds since the op began

    def timed(name, call, *args, **kwargs):
        started = clock()
        result = call(*args, **kwargs)
        spans.append([name, started - opened, clock() - opened])
        return result

    def drain(stream):
        for _ in stream:
            pass
        return stream

    opened = clock()
    session = Session(store="columnar") if batch else Session()
    compiled = timed("api.compile", compile_forced, session, program)
    timed("storage.load", session.add_facts, database)
    options = {}
    if not batch:
        options = {"method": "pwl"}
        # cached on the session; the queries reuse it
        timed("reasoning.abstraction", session.abstraction_for, compiled)
    streams = [
        timed(name, lambda q=query: drain(session.query(q, **options)))
        for name, query in zip(SPANS[workload.name], workload.queries)
    ]
    op_s = clock() - opened
    result = {
        "op_s": op_s,
        "spans": spans,
        "rss_mb": peak_rss_mb(os.getpid()),
        "digests": [
            digest(tuple(map(str, row)) for row in stream.to_set())
            for stream in streams
        ],
        "counts": [stream.count() for stream in streams],
        "stats": streams[0].stats.as_dict(),
    }
    if traced:
        from repro.lang.parser import parse_program

        if batch:
            report = session.get_fixpoint(streams[0].plan).memory_report()
            result["fixpoint_bytes"] = report.total_bytes
            result["fixpoint_atoms"] = report.atom_count
        started = clock()
        parse_program(text)
        result["parse_program_s"] = clock() - started
    return result


def main(argv) -> int:
    from repro.lang.parser import parse_program

    workload, seed, traced = BY_NAME[argv[1]], int(argv[2]), argv[3] == "1"
    text = child_program(workload, seed)
    program, database = parse_program(text)
    print("READY", flush=True)
    print(json.dumps(run_op(workload, text, program, database, traced)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
