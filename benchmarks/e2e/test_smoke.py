"""Smoke tests of the end-to-end benchmark, for a CI job to adopt.

    python -m pytest benchmarks/e2e/test_smoke.py -q

Not part of the tier-1 suite (``testpaths = ["tests"]``): the first test
spawns daemons and takes ~30 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def test_smoke_run_verifies_every_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert set(PER_LAYER) == {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        metrics = result["metrics"][workload.name]
        assert sorted(metrics) == sorted(names)
        for name in ("setup_s", "throughput_ops_s", "op_p50_ms", "peak_rss_mb"):
            assert metrics[name]["value"] > 0
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]


def _read(text: str) -> Op:
    return Op("read", text, b"")


def test_corrupted_answer_and_wrong_version_count_as_failed():
    edges = {("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")}
    updates = [((("c", "a"),), (("c", "d"),))]  # a→b→c→d→a: one 4-cycle
    ops = [
        _read("q(X) :- t(a, X)."),
        Op("update", "-e(c,a).\n+e(c,d).", b""),
        _read("q(X) :- t(d, X)."),
        _read("q() :- reach(d)."),
        _read("q(X,Y) :- mutual(X,Y)."),
    ]
    cycle = ["a", "b", "c", "d"]
    good = [
        {"ok": True, "version": 3, "answers": [["a"], ["b"], ["c"]]},
        {"ok": True, "version": 4},
        {"ok": True, "version": 4, "answers": [[x] for x in cycle]},
        {"ok": True, "version": 4, "answers": [[]]},
        {"ok": True, "version": 4,
         "answers": [[x, y] for x in cycle for y in cycle]},
    ]

    def failed(responses):
        return oracle.ChurnOracle(edges, updates).check(ops, responses, 3)

    assert failed(good) == 0
    corrupted = json.loads(json.dumps(good))
    corrupted[2]["answers"][0] = ["zzz"]
    assert failed(corrupted) == 1
    stale = json.loads(json.dumps(good))
    stale[3]["version"] = 3
    assert failed(stale) == 1
    both = json.loads(json.dumps(corrupted))
    both[3]["version"] = 3
    both[4] = {"ok": False, "error": "boom", "kind": "RuntimeError"}
    assert failed(both) == 3
    assert failed(good[:-1]) == 1  # a missing response is a failed op


def test_pwl_oracle_is_odd_length_walks():
    # a → b → c → d: odd walks are the 1- and 3-step ones.
    assert oracle.odd_walk_pairs([("a", "b"), ("b", "c"), ("c", "d")]) == {
        ("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"),
    }
    # A 2-cycle makes both parities reachable from either end.
    assert oracle.odd_walk_pairs([("a", "b"), ("b", "a")]) == {
        ("a", "b"), ("b", "a"),
    }
    assert oracle.odd_walk_pairs([("a", "a")]) == {("a", "a")}
