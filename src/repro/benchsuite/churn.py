"""Churn scenario family: interleaved insert/retract/query streams.

The continuous-reasoning workload the incremental-maintenance layer
(:mod:`repro.incremental`) targets: a long-lived session over a fact
base that keeps changing under it — edges arriving and departing while
queries must stay exact.  A :class:`ChurnScenario` packages a base
:class:`~repro.benchsuite.scenario.Scenario` (a full, single-head
program: the maintainable fragment) with a deterministic stream of
:class:`~repro.incremental.ChangeSet` updates, each bounded to a churn
fraction of the extensional relation and mixing insertions with
retractions.

Drivers: ``benchmarks/bench_incremental_churn.py`` (incremental vs
recompute-from-scratch) and the property suite
(``tests/property/test_prop_incremental.py`` exercises random
interleavings; this module provides the seeded, benchmark-scale ones).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..core.atoms import Atom
from ..core.terms import Constant
from ..incremental import ChangeSet
from ..lang.parser import parse_program, parse_query
from .scenario import Scenario

__all__ = ["ChurnScenario", "generate_churn"]

#: The program under churn: linear transitive closure (a recursive
#: stratum) plus two non-recursive strata on top of it — DRed's waves
#: run on both kinds.
_CHURN_RULES = """
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
    mutual(X,Y) :- t(X,Y), t(Y,X).
    reach(X) :- t(X,Y).
"""

_CHURN_QUERIES = (
    "q(X,Y) :- t(X,Y).",
    "q(X,Y) :- mutual(X,Y).",
    "q(X) :- reach(X).",
)


@dataclass
class ChurnScenario:
    """A base scenario plus a deterministic update stream."""

    scenario: Scenario
    steps: List[ChangeSet] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.scenario.name

    def describe(self) -> str:
        inserts = sum(len(step.inserts) for step in self.steps)
        retracts = sum(len(step.retracts) for step in self.steps)
        return (
            f"{self.scenario.describe()}; churn: {len(self.steps)} "
            f"update(s), +{inserts}/-{retracts} facts"
        )


def _edge(a: int, b: int) -> Atom:
    return Atom("e", (Constant(f"n{a}"), Constant(f"n{b}")))


def generate_churn(
    *,
    vertices: int = 128,
    edges: int = 256,
    clusters: int = 16,
    steps: int = 100,
    churn: float = 0.1,
    retract_fraction: float = 0.5,
    seed: int = 2019,
) -> ChurnScenario:
    """A clustered-graph churn stream, deterministic in *seed*.

    The edge relation is partitioned into *clusters* weakly-connected
    components (the shape of the paper's industrial ownership networks:
    many medium-sized company groups, not one giant graph), and each
    update batch churns edges of one cluster.  This is the workload
    incremental maintenance is *for* — updates whose consequences are
    local while the total materialization stays large; an adversarial
    single-SCC graph instead drives DRed's overdeletion toward the size
    of the whole closure and loses to recomputation (documented in
    docs/BENCHMARKS.md).

    Each update retracts and inserts live ``e`` edges; the combined
    batch size is at most ``churn * edges`` (the ≤10%% default), with
    *retract_fraction* of it retractions.  Retractions always target
    currently-present edges and insertions currently absent ones, so
    every operation is effective.
    """
    if not 0 < churn <= 1:
        raise ValueError(f"churn must be in (0, 1], got {churn}")
    if vertices % clusters:
        raise ValueError(
            f"vertices ({vertices}) must be divisible by clusters "
            f"({clusters})"
        )
    rng = random.Random(seed)
    size = vertices // clusters
    live: set[tuple] = set()

    def fresh_pair(cluster: int) -> tuple:
        base = cluster * size
        while True:
            a = base + rng.randrange(size)
            b = base + rng.randrange(size)
            if a != b and (a, b) not in live:
                return (a, b)

    for cluster in range(clusters):
        for _ in range(edges // clusters):
            live.add(fresh_pair(cluster))
    facts = " ".join(f"e(n{a},n{b})." for a, b in sorted(live))
    program, database = parse_program(
        facts + _CHURN_RULES,
        name=f"churn-v{vertices}-e{edges}-c{clusters}-s{seed}",
    )

    batch = max(1, int(churn * len(live)))
    retract_count = max(1, int(batch * retract_fraction))
    insert_count = max(1, batch - retract_count)
    stream: List[ChangeSet] = []
    for _ in range(steps):
        cluster = rng.randrange(clusters)
        mine = sorted(p for p in live if p[0] // size == cluster)
        outgoing = rng.sample(mine, min(retract_count, len(mine)))
        live.difference_update(outgoing)
        incoming = []
        for _ in range(insert_count):
            pair = fresh_pair(cluster)
            live.add(pair)
            incoming.append(pair)
        stream.append(
            ChangeSet.of(
                inserts=[_edge(a, b) for a, b in incoming],
                retracts=[_edge(a, b) for a, b in outgoing],
            )
        )

    scenario = Scenario(
        name=program.name,
        suite="churn",
        program=program,
        database=database,
        queries=[parse_query(q) for q in _CHURN_QUERIES],
        planted_recursion="linear",
        meta={
            "vertices": vertices,
            "edges": edges,
            "clusters": clusters,
            "steps": steps,
            "churn": churn,
            "retract_fraction": retract_fraction,
            "seed": seed,
            # The exported key space: every vertex name, isolated ones
            # included — workload generators sample keys from here
            # (Scenario.key_space), not from whichever vertices happen
            # to carry edges right now.
            "key_space": [f"n{i}" for i in range(vertices)],
        },
    )
    return ChurnScenario(scenario=scenario, steps=stream)
