"""Counting-based support for non-recursive strata.

For a stratum whose head predicates never occur in its own rule bodies,
deletion maintenance does not need delete–rederive: it is enough to
know, per derived fact, *how many* derivations support it — the
classical counting algorithm (Gupta–Mumick–Subrahmanian).  A
:class:`SupportIndex` holds those counts: one per distinct body match
across the stratum's rules, plus one per EDB assertion of the fact.
Retractions decrement exactly the matches they kill; a fact whose count
reaches zero is gone, with no rederivation pass.

Counting is unsound on recursive strata (a fact may count itself among
its own supports), which is why the maintainer falls back to DRed
there; see :mod:`repro.incremental.maintain`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..core.atoms import Atom
from ..core.match import rule_heads

__all__ = ["SupportIndex"]


class SupportIndex:
    """Derivation counts for one non-recursive stratum."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[Atom, int] = {}

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, fact: object) -> bool:
        return fact in self.counts

    def count(self, fact: Atom) -> int:
        return self.counts.get(fact, 0)

    def gain(self, fact: Atom, n: int = 1) -> int:
        """Record *n* new supports; return the updated count."""
        updated = self.counts.get(fact, 0) + n
        self.counts[fact] = updated
        return updated

    def lose(self, fact: Atom, n: int = 1) -> int:
        """Record *n* lost supports; at zero the entry is dropped.

        Returns the updated count (0 means the fact has no remaining
        derivation and must be deleted from the store).
        """
        updated = self.counts.get(fact, 0) - n
        if updated <= 0:
            self.counts.pop(fact, None)
            return 0
        self.counts[fact] = updated
        return updated

    @classmethod
    def build(
        cls,
        layer: Sequence,
        view,
        edb_facts: Iterable[Atom],
    ) -> "SupportIndex":
        """Count every body match of *layer*'s rules over *view*.

        *view* must present the stratum's **old** state (the fixpoint
        before the batch being applied), so that the subsequent
        decrement pass finds every count it removes.  *edb_facts* are
        the stratum's head-predicate facts asserted in the old EDB;
        each contributes one support.
        """
        index = cls()
        for fact in rule_heads(layer, view):
            index.gain(fact)
        for fact in edb_facts:
            index.gain(fact)
        return index
