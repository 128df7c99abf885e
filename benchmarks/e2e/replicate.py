"""One replicate of a workload, reduced to what the estimators need.

A replicate is fresh state — a fresh daemon (serve workloads) or a fresh
child process (one-op workloads) — running the workload's frozen op list
once and being checked against the oracle afterwards.  Both kinds come
back as a :class:`Replicate`: set-up time, the timed window, the
latencies of the workload's primary op kind, peak RSS and failed ops.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import oracle
from common import HERE, WORK, child_env
from serve import ServeReplicate, run_replicate
from workloads import ServeInputs, Workload, child_program, serve_inputs

CHILD_TIMEOUT_S = 120.0


@dataclass
class Replicate:
    setup_s: float
    window_s: float           # first request sent → last answer (child: its op)
    primary: List[float]      # latencies of the primary op kind, seconds
    rss_mb: float
    failed: int
    detail: Optional[object]  # ServeReplicate or the child's result dict; None = broke


def work_dir(workload: Workload) -> Path:
    """This process's scratch directory for *workload* (program file, the
    daemon's and children's cwd); the runner removes it on exit."""
    path = WORK / f"{workload.name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _broken(error: BaseException, ops: int) -> Replicate:
    """A replicate that did not complete: every op counts as failed, and
    ``detail=None`` keeps it out of every estimate."""
    print(f"  replicate failed: {error!r}", file=sys.stderr)
    return Replicate(0.0, 0.0, [], 0.0, ops, None)


def serve_replicate(
    workload: Workload,
    program_file: Path,
    inputs: ServeInputs,
    checker: oracle.ChurnOracle,
    *,
    spans=None,
) -> Replicate:
    n_ops = len(inputs.ops)
    try:
        wire: ServeReplicate = run_replicate(program_file, inputs, spans=spans)
        wire.responses = [json.loads(line) for line in wire.raw]
        wire.raw = []
    except (OSError, RuntimeError, ValueError) as error:
        return _broken(error, n_ops)
    failed = checker.check(inputs.ops, wire.responses, wire.baseline_version)
    primary = [
        seconds for op, seconds in zip(inputs.ops, wire.latencies)
        if op.kind == workload.primary
    ]
    return Replicate(
        wire.setup_s, wire.window_s, primary, wire.rss_mb, failed, wire
    )


def child_expectation(workload: Workload, seed: int) -> list:
    """[digests, counts] the oracle expects from a one-op child."""
    text = child_program(workload, seed)
    if workload.name == "batch_saturate":
        relations = oracle.churn_relations(oracle.facts(text, "e"))
        answers = [relations["t"], relations["mutual"], relations["reach"]]
    else:
        answers = [
            oracle.odd_walk_pairs(oracle.facts(text, "iw_e")),
            set(oracle.facts(text, "iw_P")),
        ]
    return [
        [oracle.digest(rows) for rows in answers],
        [len(rows) for rows in answers],
    ]


def child_replicate(
    workload: Workload, seed: int, expected: list, *, traced: bool = False
) -> Replicate:
    """Set-up is spawn → ``READY`` (interpreter, ``import repro``, inputs
    generated and parsed); the window is the child's one op."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload.name, str(seed),
         "1" if traced else "0"],
        env=child_env(), cwd=work_dir(workload), stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([process.stdout], [], [], CHILD_TIMEOUT_S)
        line = process.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - started
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != b"READY" or process.returncode != 0:
            raise RuntimeError(f"child exited with {process.returncode}")
        result = json.loads(out)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        return _broken(error, 1)
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
    good = [result["digests"], result["counts"]] == expected
    return Replicate(
        setup_s, result["op_s"], [result["op_s"]], result["rss_mb"],
        int(not good), result,
    )


def prepare(workload: Workload, seed: int):
    """Generate *workload*'s inputs for *seed* once; returns ``(inputs,
    replicate)`` where ``replicate(spans=None)`` runs one replicate on
    fresh state, traced into *spans* if given (``inputs`` is None for the
    one-op children, which generate theirs inside the child)."""
    if workload.kind == "child":
        expected = child_expectation(workload, seed)
        return None, lambda spans=None: child_replicate(
            workload, seed, expected, traced=spans is not None
        )
    inputs = serve_inputs(workload, seed)
    program_file = work_dir(workload) / f"{workload.name}.vada"
    program_file.write_text(inputs.program)
    checker = oracle.ChurnOracle(
        oracle.facts(inputs.program, "e"),
        [oracle.changes(op.text) for op in inputs.ops if op.kind == "update"],
    )
    return inputs, lambda spans=None: serve_replicate(
        workload, program_file, inputs, checker, spans=spans
    )
