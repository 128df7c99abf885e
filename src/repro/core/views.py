"""A read-only union of two fact stores.

Not a full :class:`~repro.core.store.FactStore`: it implements the read
surface its two readers need — the probe surface of a compiled join
(``matching_bound``, and ``matching`` derived from it), membership,
iteration and size — which keeps it O(1) to construct around stores
that already exist.  The incremental maintainer's deletion phase joins
over one; the proof-tree engines' chase probe
(:func:`~repro.reasoning.answers.probe_instance`) is one.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator, Mapping, Optional

from .atoms import Atom
from .store import FactStore
from .terms import Term

__all__ = ["UnionView"]


class UnionView:
    """Read-only union of *store* and *extra*, copying neither.

    *store* is read in full; *extra* only on *predicates* (in full when
    it is None), so a view can expose part of a store that holds more.
    An atom in both layers is reported once, from *store*.  *extra*
    must be indexed: the view sits under joins, so probes into it must
    hit position indexes, not scans.  ``len`` counts by iterating.

    During the deletion phase of incremental maintenance the maintainer
    needs joins over the *old* state — the fixpoint as it stood before
    this batch — while the live store is already missing the net
    deletions of earlier strata; the union of the live store and the
    removed atoms (an :class:`~repro.core.instance.Instance`) restores
    them.  The chase probe is the union of the chased
    :class:`~repro.core.instance.Instance` and the star abstraction
    read on its exact predicates only.
    """

    def __init__(
        self, store, extra, predicates: Optional[AbstractSet[str]] = None
    ):
        self.store = store
        self.extra = extra
        #: The predicates read from *extra*; None reads all of them.
        self.predicates = predicates

    def _reads(self, predicate: str) -> bool:
        return self.predicates is None or predicate in self.predicates

    def __contains__(self, atom: object) -> bool:
        return atom in self.store or (
            isinstance(atom, Atom)
            and self._reads(atom.predicate)
            and atom in self.extra
        )

    def matching_bound(
        self, predicate: str, bound: Mapping[int, Term], arity: Optional[int] = None
    ) -> Iterator[Atom]:
        yield from self.store.matching_bound(predicate, bound, arity)
        if self._reads(predicate):
            for atom in self.extra.matching_bound(predicate, bound, arity):
                if atom not in self.store:
                    yield atom

    matching = FactStore.matching  # the pattern form, over matching_bound

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        return self.matching_bound(predicate, {})

    def __iter__(self) -> Iterator[Atom]:
        yield from self.store
        extra = iter(self.extra) if self.predicates is None else (
            atom
            for predicate in sorted(self.predicates)
            for atom in self.extra.by_predicate(predicate)
        )
        for atom in extra:
            if atom not in self.store:
                yield atom

    def __len__(self) -> int:
        return sum(1 for _ in self)
