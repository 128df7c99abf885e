"""Determinism checks of the end-to-end benchmark (opt-in, ~4 min).

    python -m pytest benchmarks/e2e/test_determinism.py -q

Same seed ⇒ byte-identical program files and op lists, whatever the
interpreter's hash seed; every count the README marks ``=`` identical
across two traced runs; another seed gives other inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import EXACT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_INPUTS = """
import hashlib, sys
sys.path.insert(0, {here!r})
from common import require_source
require_source()
from workloads import WORKLOADS, child_program, serve_inputs
for workload in WORKLOADS:
    digest = hashlib.sha256()
    if workload.kind == "serve":
        inputs = serve_inputs(workload, {seed})
        digest.update(inputs.program.encode())
        for frame in inputs.warmup + tuple(op.frame for op in inputs.ops):
            digest.update(frame)
    else:
        digest.update(child_program(workload, {seed}).encode())
    print(workload.name, digest.hexdigest())
"""


def _input_digests(seed: int, hash_seed: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", _INPUTS.format(here=str(HERE), seed=seed)],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = _input_digests(2019, "0")
    assert first == _input_digests(2019, "12345")
    other = _input_digests(7, "0")
    for ours, theirs in zip(first.splitlines(), other.splitlines()):
        assert ours != theirs


def _traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in EXACT}


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_exact_counts_repeat_and_second_seed_verifies(workload):
    assert _traced(workload, 2019) == _traced(workload, 2019)
    _traced(workload, 7)
