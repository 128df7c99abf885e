"""Unit tests for :mod:`repro.workloads` — the trace generator and
the latency histogram."""

import hashlib
import math
from collections import Counter

import pytest

from repro.workloads import (
    MIXES,
    LatencyHistogram,
    ZipfianSampler,
    generate_trace,
    materialize_scenario,
)

SMALL = dict(vertices=16, edges=32, clusters=2)


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.p50 == 0.0
        assert hist.summary()["count"] == 0

    def test_single_sample_is_every_percentile(self):
        hist = LatencyHistogram.of([0.25])
        assert hist.p50 == hist.p99 == 0.25
        assert hist.min == hist.max == 0.25

    def test_percentiles_bracket_the_samples(self):
        samples = [i / 1000 for i in range(1, 1001)]  # 1ms .. 1s
        hist = LatencyHistogram.of(samples)
        assert hist.count == 1000
        # Log buckets at 2^(1/8) growth: ≤ ~9% relative error.
        assert hist.p50 == pytest.approx(0.5, rel=0.1)
        assert hist.p99 == pytest.approx(0.99, rel=0.1)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(1.0)
        assert hist.mean == pytest.approx(sum(samples) / 1000, rel=0.1)

    def test_percentiles_clamped_to_observed_range(self):
        hist = LatencyHistogram.of([0.010, 0.011, 0.012])
        assert hist.min <= hist.p50 <= hist.max
        assert hist.min <= hist.p99 <= hist.max
        # The top bucket's midpoint lies below 0.002: the last rank is
        # the maximum itself, not the midpoint.
        hist = LatencyHistogram.of([0.001, 0.002])
        assert hist.percentile(1.0) == hist.max == 0.002

    def test_sub_resolution_and_negative_samples(self):
        hist = LatencyHistogram.of([0.0, -1.0, 1e-9])
        assert hist.count == 3
        assert hist.min == 0.0

    def test_merge(self):
        left = LatencyHistogram.of([0.001] * 50)
        right = LatencyHistogram.of([0.1] * 50)
        left.merge(right)
        assert left.count == 100
        assert left.p50 == pytest.approx(0.001, rel=0.1)
        assert left.p99 == pytest.approx(0.1, rel=0.1)

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(base=1e-3))

    def test_throughput(self):
        hist = LatencyHistogram.of([0.01] * 200)
        assert hist.throughput(4.0) == pytest.approx(50.0)
        assert hist.throughput(0.0) == 0.0


class TestZipfianSampler:
    def test_same_seed_same_stream(self):
        keys = [f"k{i}" for i in range(50)]
        a = ZipfianSampler(keys, s=1.2, seed=7)
        b = ZipfianSampler(keys, s=1.2, seed=7)
        assert [a.sample() for _ in range(200)] == [
            b.sample() for _ in range(200)
        ]

    def test_rank_one_dominates(self):
        keys = [f"k{i}" for i in range(100)]
        sampler = ZipfianSampler(keys, s=1.3, seed=11)
        draws = [sampler.sample() for _ in range(3000)]
        top = draws.count("k0") / len(draws)
        expected = sampler.expected_mass(1)
        # 3000 draws: binomial σ ≈ sqrt(p(1-p)/n) < 0.01; 5σ slack.
        assert abs(top - expected) < 5 * math.sqrt(
            expected * (1 - expected) / 3000
        )

    def test_zero_skew_is_uniform_mass(self):
        sampler = ZipfianSampler(["a", "b", "c", "d"], s=0.0, seed=1)
        assert sampler.expected_mass(1) == pytest.approx(0.25)
        assert sampler.expected_mass(4) == pytest.approx(0.25)

    def test_rejects_empty_keys_and_negative_skew(self):
        with pytest.raises(ValueError):
            ZipfianSampler([], seed=1)
        with pytest.raises(ValueError):
            ZipfianSampler(["a"], s=-1.0, seed=1)


class TestGenerate:
    def test_same_seed_byte_identical(self):
        a = generate_trace(ops=120, seed=9, **SMALL)
        b = generate_trace(ops=120, seed=9, **SMALL)
        assert a.ops == b.ops

    def test_different_seed_differs(self):
        a = generate_trace(ops=120, seed=9, **SMALL)
        b = generate_trace(ops=120, seed=10, **SMALL)
        assert a.ops != b.ops

    @pytest.mark.parametrize(
        "mix, ops, digest",
        [("read-heavy", 450, "102e52b91884ff56"),
         ("churn", 24, "28e5af282c595a8f")],
    )
    def test_golden_digest(self, mix, ops, digest):
        # The e2e serve workloads replay these op lists (same graph,
        # same skew): a change to the generator's rng order shifts every
        # one of them, and parent/change benchmark pairs stop comparing
        # like with like.
        trace = generate_trace(
            ops=ops, mix=mix, skew=1.1, seed=2019,
            vertices=64, edges=128, clusters=8,
        )
        sha = hashlib.sha256()
        for op in trace.ops:
            sha.update(f"{op.kind}\x1f{op.query}\x1f{op.changes}\x1e".encode())
        assert sha.hexdigest()[:16] == digest

    def test_mix_fractions_roughly_honoured(self):
        trace = generate_trace(ops=600, mix="churn", seed=5, **SMALL)
        kinds = Counter(op.kind for op in trace.ops)
        assert kinds["update"] / 600 == pytest.approx(
            MIXES["churn"]["update"], abs=0.1
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_trace(ops=0, **SMALL)
        with pytest.raises(ValueError):
            generate_trace(ops=5, mix="write-only", **SMALL)

    def test_updates_always_effective(self):
        # Stateful generation: every retract hits a live edge, every
        # insert an absent one — so a server admits every batch and the
        # trace-order → version mapping stays exact.
        from repro.incremental import ChangeSet

        trace = generate_trace(ops=200, mix="churn", seed=13, **SMALL)
        scenario = materialize_scenario(trace)
        state = {
            (str(a.args[0]), str(a.args[1]))
            for a in scenario.database
            if a.predicate == "e"
        }
        updates = 0
        for op in trace.ops:
            if op.kind != "update":
                continue
            updates += 1
            inserts, retracts = ChangeSet.parse(op.changes).net()
            for atom in retracts:
                pair = (str(atom.args[0]), str(atom.args[1]))
                assert pair in state
                state.discard(pair)
            for atom in inserts:
                pair = (str(atom.args[0]), str(atom.args[1]))
                assert pair not in state
                state.add(pair)
        assert updates > 0
