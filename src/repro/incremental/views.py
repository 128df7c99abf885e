"""The old-state view of the deletion phase.

Not a full :class:`~repro.core.store.FactStore`: it implements exactly
the probe surface the compiled delta join needs of its join side
(``matching_bound``, and ``matching`` derived from it), which keeps it
O(1) to construct around the live store.  The pinned delta side of the
same joins is :class:`repro.core.match.AtomSet`.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from ..core.atoms import Atom
from ..core.store import FactStore
from ..core.terms import Term

__all__ = ["UnionView"]


class UnionView:
    """Read-only union of the live store and the already-removed atoms.

    During the deletion phase the maintainer needs joins over the *old*
    state — the fixpoint as it stood before this batch — while the live
    store is already missing the net deletions of earlier strata.  The
    union restores them without copying anything.  *removed* must be an
    indexed :class:`~repro.core.store.FactStore` (the maintainer uses
    an :class:`~repro.core.instance.Instance`): the view sits under
    every join of the deletion phase, so probes into the removed layer
    must hit position indexes, not scans.  An atom in both layers is
    reported once, from the store.
    """

    def __init__(self, store, removed):
        self._store = store
        self._removed = removed

    def __contains__(self, atom: object) -> bool:
        return atom in self._store or atom in self._removed

    def matching_bound(
        self, predicate: str, bound: Mapping[int, Term], arity: Optional[int] = None
    ) -> Iterator[Atom]:
        yield from self._store.matching_bound(predicate, bound, arity)
        for atom in self._removed.matching_bound(predicate, bound, arity):
            if atom not in self._store:
                yield atom

    matching = FactStore.matching  # the pattern form, over matching_bound

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        return self.matching_bound(predicate, {})
