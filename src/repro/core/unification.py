"""Syntactic unification of atoms.

The language has no function symbols, so unification reduces to computing
a most general unifier (MGU) over flat argument tuples: a union-find over
variables where each class may additionally contain at most one *rigid*
term (a constant or a labeled null).  Two rigid terms clash unless equal.

:class:`UnionFind` is that structure.  Chunk-based resolution
(Definition 4.3, :mod:`repro.prooftree.chunk`) unions every atom of a
chunk ``S1`` with the (single) head atom of the TGD in one structure —
the simultaneous MGU of the chunk — and reads it off with
:meth:`UnionFind.to_substitution`: every unified variable maps to the
representative of its class (a rigid term if the class contains one,
otherwise a canonical variable of the class).
"""

from __future__ import annotations

from typing import Optional

from .substitution import Substitution
from .terms import Term, Variable

__all__ = ["UnionFind"]


class UnionFind:
    """Union-find over terms with rigid-term conflict detection.

    Variables may merge freely; a class may absorb at most one distinct
    rigid term (constant or null).  Merging two classes holding different
    rigid terms fails.
    """

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self._rigid: dict[Term, Optional[Term]] = {}

    def _ensure(self, term: Term) -> None:
        if term not in self._parent:
            self._parent[term] = term
            self._rigid[term] = term if not isinstance(term, Variable) else None

    def find(self, term: Term) -> Term:
        """Return the class representative of *term* (path-compressed)."""
        self._ensure(term)
        root = term
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[term] != root:
            self._parent[term], term = root, self._parent[term]
        return root

    def union(self, a: Term, b: Term) -> bool:
        """Merge the classes of *a* and *b*; False on rigid-term clash."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        rigid_a, rigid_b = self._rigid[ra], self._rigid[rb]
        if rigid_a is not None and rigid_b is not None and rigid_a != rigid_b:
            return False
        self._parent[rb] = ra
        if rigid_a is None:
            self._rigid[ra] = rigid_b
        return True

    def rigid_of(self, term: Term) -> Optional[Term]:
        """The rigid term of *term*'s class, if any."""
        return self._rigid[self.find(term)]

    def classes(self) -> dict[Term, set[Term]]:
        """Materialize the current partition as representative → members."""
        grouped: dict[Term, set[Term]] = {}
        for term in list(self._parent):
            grouped.setdefault(self.find(term), set()).add(term)
        return grouped

    def to_substitution(self) -> Substitution:
        """Extract the MGU represented by the current partition.

        Every variable maps to the rigid term of its class if one exists,
        otherwise to a canonical member variable of the class (the one
        with the smallest name, for determinism).
        """
        mapping: dict[Term, Term] = {}
        for root, members in self.classes().items():
            rigid = self._rigid[root]
            if rigid is not None:
                target: Term = rigid
            else:
                target = min(
                    (m for m in members if isinstance(m, Variable)),
                    key=lambda v: v.name,
                )
            for member in members:
                if isinstance(member, Variable) and member != target:
                    mapping[member] = target
        return Substitution(mapping)
