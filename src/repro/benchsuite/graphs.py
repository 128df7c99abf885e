"""Random relational data generators shared by the scenario builders."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..core.atoms import Atom
from ..core.instance import Database
from ..core.terms import Constant

__all__ = [
    "random_edges",
    "add_binary_relation",
    "add_unary_relation",
]


def random_edges(
    n: int, m: int, rng: random.Random, prefix: str = "n"
) -> List[Tuple[str, str]]:
    """*m* distinct directed edges over *n* named vertices (no loops)."""
    edges: set[Tuple[str, str]] = set()
    attempts = 0
    while len(edges) < m and attempts < 50 * m:
        attempts += 1
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.add((f"{prefix}{a}", f"{prefix}{b}"))
    return sorted(edges)


def add_binary_relation(
    database: Database, predicate: str, pairs: Sequence[Tuple[str, str]]
) -> None:
    """Insert (a, b) pairs as facts of a binary predicate."""
    for a, b in pairs:
        database.add(Atom(predicate, (Constant(a), Constant(b))))


def add_unary_relation(
    database: Database, predicate: str, values: Sequence[str]
) -> None:
    """Insert values as facts of a unary predicate."""
    for value in values:
        database.add(Atom(predicate, (Constant(value),)))
