"""Seeded workload generation: zipfian key skew over the churn graph.

The "millions of users" traffic the north star names is not uniform:
a few hot entities absorb most of the reads while the long tail is
touched rarely, and updates churn the same skewed key population.
:class:`ZipfianSampler` is the seeded, ``s``-parameterized sampler that
produces that shape, and :func:`generate_trace` composes it with a
named op mix (read-heavy, churn) over the churn family's exported key
space (:meth:`repro.benchsuite.Scenario.key_space`) into a reproducible
:class:`Trace` — same seed, identical op list.  The end-to-end benchmark
(``benchmarks/e2e/workloads.py``) turns each op into a request frame.

Three op kinds:

* ``query`` — a conjunctive query with a bound constant sampled from
  the key skew;
* ``update`` — one EDB change batch in the ``+atom`` / ``-atom``
  textual delta format :meth:`repro.incremental.ChangeSet.parse` reads;
* ``point_lookup`` — a fully-bound Boolean query (answer ``()`` or
  nothing): the "is this edge live" shape of serving traffic.

Updates are generated *statefully*: the generator tracks the live edge
set, so every retraction targets a present fact and every insertion an
absent one.  A server therefore admits every update batch as effective,
which keeps the trace-order → EDB-version mapping exact — the property
the end-to-end benchmark's oracle (``benchmarks/e2e/oracle.py``) stands
on when it checks each read against the version it was admitted under.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from ..benchsuite import Scenario, generate_churn

__all__ = [
    "MIXES",
    "Trace",
    "TraceOp",
    "ZipfianSampler",
    "generate_trace",
    "materialize_scenario",
]

#: Named op mixes: fractions of query / update / point_lookup traffic.
#: ``read-heavy`` is the 90/5/5 serving shape, ``churn`` the 50%-write
#: maintenance stress.
MIXES: Dict[str, Dict[str, float]] = {
    "read-heavy": {"query": 0.90, "update": 0.05, "point_lookup": 0.05},
    "churn": {"query": 0.25, "update": 0.50, "point_lookup": 0.25},
}

#: Facts per update batch: half retractions of live edges, half inserts.
UPDATE_BATCH = 4

#: Share of point lookups that probe a live edge (the rest probe a
#: skew-sampled pair, usually absent).
LOOKUP_HIT_FRACTION = 0.5


@dataclass(frozen=True)
class TraceOp:
    """One generated operation: a query text or a change batch."""

    kind: str
    query: str = ""
    changes: str = ""


@dataclass(frozen=True)
class Trace:
    """A generated op stream and the scenario it runs over."""

    ops: Tuple[TraceOp, ...]
    scenario: Scenario


class ZipfianSampler:
    """Seeded sampling from a Zipf(s) distribution over ranked keys.

    Key *rank* is assigned by position in *keys* (rank 1 first, the
    hottest); weight of rank ``r`` is ``r^-s``.  ``s = 0`` degenerates
    to uniform; serving traffic is typically ``s ≈ 0.9–1.3``.  Sampling
    is O(log n) via bisection over the cumulative weights, and fully
    deterministic in the seed.
    """

    def __init__(
        self, keys: Sequence[str], *, s: float = 1.1, seed: int = 2019
    ):
        if not keys:
            raise ValueError("ZipfianSampler needs a non-empty key space")
        if s < 0:
            raise ValueError(f"skew parameter s must be >= 0, got {s}")
        self.keys = tuple(keys)
        self.s = s
        self._rng = random.Random(seed)
        weights = [(rank + 1) ** -s for rank in range(len(self.keys))]
        self._cumulative = list(accumulate(weights))
        self._total = self._cumulative[-1]

    def expected_mass(self, rank: int) -> float:
        """The analytic probability of the rank-*rank* key (1-based)."""
        if not 1 <= rank <= len(self.keys):
            raise ValueError(f"rank must be in [1, {len(self.keys)}]")
        weight = rank ** -self.s
        return weight / self._total

    def sample(self) -> str:
        point = self._rng.random() * self._total
        return self.keys[bisect_right(self._cumulative, point)]

    def uniform(self) -> str:
        """One uniformly random key from the same rng stream."""
        return self.keys[self._rng.randrange(len(self.keys))]


#: Query shapes per sampled key: forward closure from the key, reverse
#: closure into it, and the unary reachability probe.
_QUERY_PATTERNS = (
    "q(X) :- t({key}, X).",
    "q(X) :- t(X, {key}).",
    "q() :- reach({key}).",
)


def materialize_scenario(trace: Trace) -> Scenario:
    """The scenario (program and base EDB) *trace* was generated over."""
    return trace.scenario


def _edges_of(scenario: Scenario) -> set:
    return {
        (str(atom.args[0]), str(atom.args[1]))
        for atom in scenario.database
        if atom.predicate == "e"
    }


def generate_trace(
    *,
    ops: int,
    mix: str = "read-heavy",
    skew: float = 1.1,
    seed: int = 2019,
    vertices: int = 64,
    edges: int = 128,
    clusters: int = 8,
) -> Trace:
    """Generate a reproducible *ops*-long trace over the churn graph.

    One seeded rng drives every choice — op kind, key rank, query
    shape, edge churn — in a fixed order, so the same arguments always
    produce the identical op list.
    """
    if ops < 1:
        raise ValueError(f"ops must be >= 1, got {ops}")
    if mix not in MIXES:
        raise ValueError(
            f"unknown mix {mix!r}; choose from {', '.join(MIXES)}"
        )
    # steps=0: only the base scenario — the trace carries its own
    # update stream, generated with the key skew instead of uniformly.
    scenario = generate_churn(
        vertices=vertices, edges=edges, clusters=clusters, steps=0, seed=seed
    ).scenario
    keys = scenario.key_space()
    rng = random.Random(seed)
    # Hot ranks are a property of the workload, not of key names: a
    # seeded shuffle assigns which keys are hot, then the sampler owns
    # the rank → frequency shape.
    ranked = rng.sample(keys, len(keys))
    sampler = ZipfianSampler(ranked, s=skew, seed=rng.randrange(2 ** 30))
    weights = MIXES[mix]
    kinds = rng.choices(
        population=list(weights), weights=list(weights.values()), k=ops
    )
    live = _edges_of(scenario)

    def fresh_edge(forbidden: frozenset) -> Tuple[str, str]:
        # *forbidden* carries the current batch's retractions: re-adding
        # one would net (-e, +e) into an insert of a fact present at
        # batch start — breaking the every-op-effective invariant.
        for _ in range(64):
            a = sampler.sample()
            b = sampler.uniform()
            if a != b and (a, b) not in live and (a, b) not in forbidden:
                return a, b
        # Dense key spaces can exhaust skewed probing; fall back to the
        # first absent pair in deterministic order.
        for a in ranked:
            for b in ranked:
                if a != b and (a, b) not in live and (a, b) not in forbidden:
                    return a, b
        raise ValueError("key space saturated: no absent edge to insert")

    trace_ops: List[TraceOp] = []
    for kind in kinds:
        if kind == "query":
            key = sampler.sample()
            pattern = _QUERY_PATTERNS[
                0 if rng.random() < 0.6 else rng.randrange(
                    1, len(_QUERY_PATTERNS)
                )
            ]
            trace_ops.append(TraceOp(kind, query=pattern.format(key=key)))
        elif kind == "point_lookup":
            if live and rng.random() < LOOKUP_HIT_FRACTION:
                a, b = sorted(live)[rng.randrange(len(live))]
            else:
                a = sampler.sample()
                b = sampler.uniform()
            trace_ops.append(TraceOp(kind, query=f"q() :- t({a}, {b})."))
        else:  # update
            retract_count = min(UPDATE_BATCH // 2, max(0, len(live) - 1))
            outgoing = rng.sample(sorted(live), retract_count)
            live.difference_update(outgoing)
            forbidden = frozenset(outgoing)
            incoming = []
            for _ in range(UPDATE_BATCH - retract_count):
                pair = fresh_edge(forbidden)
                live.add(pair)
                incoming.append(pair)
            lines = [f"-e({a},{b})." for a, b in outgoing]
            lines += [f"+e({a},{b})." for a, b in incoming]
            trace_ops.append(TraceOp(kind, changes="\n".join(lines)))
    return Trace(ops=tuple(trace_ops), scenario=scenario)
