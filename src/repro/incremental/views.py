"""Light-weight atom collections used by the maintenance phases.

Neither of these is a full :class:`~repro.core.store.FactStore`; they
implement exactly the retrieval surface the delta-join machinery needs
(``matching`` for the join side, ``by_predicate``/``__contains__`` for
the pinned delta side), which keeps them O(1) to construct around the
live store.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from ..core.atoms import Atom

__all__ = ["AtomSet", "UnionView"]


class AtomSet:
    """A small predicate-indexed atom set (the pinned delta of a join).

    Supports the protocol :func:`repro.datalog.seminaive._delta_matches`
    expects of its ``delta`` argument: ``by_predicate``, membership,
    iteration, and truthiness.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: set[Atom] = set()
        self._by_predicate: Dict[str, List[Atom]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> bool:
        if atom in self._atoms:
            return False
        self._atoms.add(atom)
        self._by_predicate.setdefault(atom.predicate, []).append(atom)
        return True

    def __contains__(self, atom: object) -> bool:
        return atom in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        return iter(tuple(self._by_predicate.get(predicate, ())))


class UnionView:
    """Read-only union of the live store and the already-removed atoms.

    During the deletion phase the maintainer needs joins over the *old*
    state — the fixpoint as it stood before this batch — while the live
    store is already missing the net deletions of earlier strata.  The
    union restores them without copying anything.  *removed* must be an
    indexed :class:`~repro.core.store.FactStore` (the maintainer uses
    an :class:`~repro.core.instance.Instance`): the view sits under
    every join of the deletion phase, so probes into the removed layer
    must hit position indexes, not scans.
    """

    def __init__(self, store, removed):
        self._store = store
        self._removed = removed

    def __contains__(self, atom: object) -> bool:
        return atom in self._store or atom in self._removed

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        yield from self._store.matching(pattern)
        for atom in self._removed.matching(pattern):
            if atom not in self._store:
                yield atom

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        yield from self._store.by_predicate(predicate)
        for atom in self._removed.by_predicate(predicate):
            if atom not in self._store:
                yield atom
