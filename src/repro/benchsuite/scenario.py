"""Benchmark scenarios: a program, a database, queries, and provenance.

The paper surveys TGD-sets from ChaseBench, iBench, iWarded, a
DBpedia-based benchmark, and industrial sources.  Those suites are not
redistributable, so :mod:`repro.benchsuite` generates synthetic
scenarios with the same structural features (**[SIM]**: a substitute
for data this repository cannot ship);
every generated scenario carries its suite label and the recursion
flavour it was planted with, so the E1 statistics can be validated
against ground truth.  :func:`answer_digest` is how the benchmarks and
agreement tests compare the answer sets engines return on them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery

__all__ = ["Scenario", "answer_digest"]


def answer_digest(answers: Iterable[Tuple]) -> str:
    """A content digest of a certain-answer set (order-independent).

    Terms and rows are length-prefixed so the encoding is injective:
    a constant containing ``,`` or a newline cannot make two different
    answer sets collide into one digest (which would silently defeat
    an agreement check).
    """
    rows = sorted(
        ";".join(
            f"{len(text)}:{text}"
            for text in (str(term) for term in answer)
        )
        for answer in answers
    )
    canonical = "\n".join(f"{len(row)}#{row}" for row in rows)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Scenario:
    """One benchmark scenario with its planted ground truth."""

    name: str
    suite: str                      # "iwarded" | "ibench" | "chasebench" | ...
    program: Program
    database: Database
    queries: List[ConjunctiveQuery] = field(default_factory=list)
    planted_recursion: str = "none"  # "none"|"linear"|"pwl"|"linearizable"|"nonpwl"
    meta: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"{self.suite}/{self.name}: {len(self.program)} TGDs, "
            f"{len(self.database)} facts, planted={self.planted_recursion}"
        )

    def key_space(self) -> tuple:
        """The scenario's addressable keys, for workload generation.

        Skewed traffic generators (:mod:`repro.workloads.generate`)
        sample query constants and update targets from this space.
        Families that know their key population export it explicitly
        via ``meta["key_space"]`` (the graph families: every vertex,
        including isolated ones); the fallback is every constant
        observed in the EDB, sorted for determinism.
        """
        exported = self.meta.get("key_space")
        if exported:
            return tuple(exported)
        return tuple(
            sorted(
                {
                    str(term)
                    for atom in self.database
                    for term in atom.args
                }
            )
        )
