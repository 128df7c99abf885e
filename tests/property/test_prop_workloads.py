"""Property tests for the workload generator.

Two laws the generator must satisfy for the end-to-end benchmark's op
lists to be a trustworthy measurement instrument:

* **determinism** — the generator is a pure function of its arguments:
  the same seed yields the identical op list;
* **skew shape** — the zipfian sampler actually produces its advertised
  distribution: the rank-1 key's empirical frequency stays within
  binomial sampling error of the analytic mass.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import MIXES, ZipfianSampler, generate_trace

#: Small scenario shapes: vertices divisible by clusters (a churn-family
#: constraint), key spaces big enough for skew to mean something.
_shapes = st.sampled_from(
    [
        (16, 32, 2),
        (24, 48, 4),
        (32, 64, 8),
    ]
)


@settings(max_examples=15, deadline=None)
@given(
    shape=_shapes,
    ops=st.integers(min_value=1, max_value=80),
    mix=st.sampled_from(sorted(MIXES)),
    skew=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_same_seed_reproduces_identical_trace(shape, ops, mix, skew, seed):
    vertices, edges, clusters = shape
    kwargs = dict(
        ops=ops,
        mix=mix,
        skew=skew,
        seed=seed,
        vertices=vertices,
        edges=edges,
        clusters=clusters,
    )
    assert generate_trace(**kwargs).ops == generate_trace(**kwargs).ops


@settings(max_examples=15, deadline=None)
@given(
    keys=st.integers(min_value=5, max_value=200),
    skew=st.floats(min_value=0.5, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_zipfian_top_rank_matches_analytic_mass(keys, skew, seed):
    population = [f"k{i}" for i in range(keys)]
    sampler = ZipfianSampler(population, s=skew, seed=seed)
    expected = sampler.expected_mass(1)
    draws = 2000
    hits = sum(sampler.sample() == "k0" for _ in range(draws))
    observed = hits / draws
    # Binomial sampling error: 5σ keeps the false-positive rate
    # negligible across the example budget while still catching a
    # sampler whose weights or bisection are wrong.
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(observed - expected) <= 5 * sigma + 1e-9
