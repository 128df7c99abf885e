"""Delta-overlay storage: an O(|change|) version layer.

:class:`DeltaOverlay` layers a small writable *delta* store and a set
of *tombstones* over a *base* store that it seals at construction.
The visible atom set is ``base − tombstones + delta``: building the
next state of a large fact base costs the size of the change, not the
size of the base, and whoever still reads the base is unaffected.  This
is the base/delta split the streaming-Vadalog architecture builds on,
and what :class:`~repro.server.snapshot.SnapshotManager` chains into
MVCC versions.

Both layers are themselves :class:`~repro.core.store.FactStore`
instances, so overlays compose with any backend and with each other.
The base is not copied — constructing an overlay over a large base is
O(1) — and :meth:`~repro.core.store.FactStore.freeze` is what keeps
that safe: no write can reach the base, so the layers stay disjoint
(``delta ∩ base = ∅``, ``tombstones ⊆ base``) and reads never have to
check.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from ..core.atoms import Atom
from ..core.memory import deep_sizeof
from ..core.store import FactStore, MemoryReport
from ..core.terms import Term

__all__ = ["DeltaOverlay"]


class DeltaOverlay(FactStore):
    """A writable delta (and tombstones) layered over a sealed base.

    Construction freezes *base*.  Atoms new to the overlay land in the
    delta; retracting a base atom records a tombstone that every
    base-side read filters.
    """

    backend_name = "delta"

    def __init__(self, base: FactStore):
        self._base = base.freeze()
        self._delta = base.fresh()
        self._tombstones: set[Atom] = set()

    @property
    def base(self) -> FactStore:
        """The sealed lower layer."""
        return self._base

    @property
    def delta(self) -> FactStore:
        """The writable upper layer."""
        return self._delta

    # -- mutation ----------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        self._check_mutable()
        if atom in self._tombstones:
            # Re-asserting a retracted base atom resurrects it: drop
            # the tombstone and the base copy shows through again.
            self._tombstones.discard(atom)
            return True
        if atom in self._base:
            return False
        return self._delta.add(atom)

    def discard(self, atom: Atom) -> bool:
        """Remove *atom* from the overlay's visible set: a delta atom
        is deleted outright, a base atom gets a tombstone."""
        if not isinstance(atom, Atom):
            return False
        self._check_mutable()
        if self._delta.discard(atom):
            return True
        if atom in self._base and atom not in self._tombstones:
            self._tombstones.add(atom)
            return True
        return False

    # -- membership and iteration -----------------------------------------

    def _live(self, atoms: Iterable[Atom]) -> Iterator[Atom]:
        """Base atoms not retracted through a tombstone."""
        if not self._tombstones:
            yield from atoms
            return
        for atom in atoms:
            if atom not in self._tombstones:
                yield atom

    def __contains__(self, atom: object) -> bool:
        if atom in self._delta:
            return True
        return atom in self._base and atom not in self._tombstones

    def __iter__(self) -> Iterator[Atom]:
        yield from self._live(self._base)
        yield from self._delta

    def __len__(self) -> int:
        return len(self._base) - len(self._tombstones) + len(self._delta)

    def count(self, predicate: Optional[str] = None) -> int:
        if predicate is None:
            return len(self)
        # Delegate so each backend keeps its O(1)/index-based count.
        dead = sum(1 for t in self._tombstones if t.predicate == predicate)
        return (
            self._base.count(predicate) - dead
            + self._delta.count(predicate)
        )

    # -- retrieval ---------------------------------------------------------

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        yield from self._live(self._base.by_predicate(predicate))
        yield from self._delta.by_predicate(predicate)

    def predicates(self) -> set[str]:
        names = self._base.predicates() | self._delta.predicates()
        if self._tombstones:
            names = {n for n in names if any(True for _ in self.by_predicate(n))}
        return names

    def matching_bound(
        self,
        predicate: str,
        bound: Mapping[int, Term],
        arity: Optional[int] = None,
    ) -> Iterator[Atom]:
        yield from self._live(
            self._base.matching_bound(predicate, bound, arity)
        )
        yield from self._delta.matching_bound(predicate, bound, arity)

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        # Delegate per layer so each backend keeps its optimized path.
        yield from self._live(self._base.matching(pattern))
        yield from self._delta.matching(pattern)

    # -- lifecycle ---------------------------------------------------------

    def freeze(self) -> "DeltaOverlay":
        """Seal the overlay and its delta (the base already is)."""
        self._delta.freeze()
        super().freeze()
        return self

    def fresh(self) -> FactStore:
        """An empty *flat* store of the bottom backend (sharing its
        interning table, if it has one).  Never another overlay: the
        next overlay takes its delta from here, so a version chain of
        depth *d* has *d* + 1 leaf stores, not 2^*d*."""
        return self._base.fresh()

    def copy(self) -> "DeltaOverlay":
        """An independent writable overlay over the *same* sealed base
        — the base is immutable, so sharing it shares no mutable
        state."""
        clone = DeltaOverlay(self._base)
        clone._delta.add_all(self._delta)
        clone._tombstones = set(self._tombstones)
        return clone

    # -- accounting --------------------------------------------------------

    def memory_report(self, seen: Optional[set[int]] = None) -> MemoryReport:
        # One shared visited-set across both layers: term objects decoded
        # from the base and re-interned in the delta are charged once,
        # and term_count is the true number of distinct terms.
        if seen is None:
            seen = set()
        base_report = self._base.memory_report(seen)
        delta_report = self._delta.memory_report(seen)
        components = {
            f"base.{name}": size
            for name, size in base_report.components.items()
        }
        components.update(
            (f"delta.{name}", size)
            for name, size in delta_report.components.items()
        )
        components["tombstones"] = deep_sizeof(self._tombstones, seen)
        spilled = {
            f"base.{name}": size
            for name, size in base_report.spilled.items()
        }
        spilled.update(
            (f"delta.{name}", size)
            for name, size in delta_report.spilled.items()
        )
        return MemoryReport(
            backend=self.backend_name,
            atom_count=len(self),
            term_count=len(self.active_domain()),
            components=components,
            spilled=spilled,
        )

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay(base={len(self._base)} atoms, "
            f"delta={len(self._delta)} atoms)"
        )
