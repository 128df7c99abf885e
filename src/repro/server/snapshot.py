"""MVCC snapshots of the EDB: immutable versions, refcounted leases.

The serving layer must let ``apply(ChangeSet)`` install a new EDB
version *while in-flight queries keep reading the old one*.  Every
version is one flat store of the served backend:

* **version 0** is a frozen copy of the EDB at serve start;
* **version n+1** is a copy of version n's store with the batch's
  retractions discarded and its insertions added, then frozen
  (:meth:`~repro.core.store.FactStore.freeze`) — version n is never
  touched.

The copy costs O(|EDB|), which an update already pays: each cached
maintainable fixpoint is copied forward too, and holds the EDB.

Readers take a :class:`SnapshotLease` (refcount +1 under the manager's
lock); a version is garbage-collected when it is no longer the head and
its last lease is released.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

from ..api.cache import FixpointCache
from ..api.planner import _store_label
from ..core.atoms import Atom
from ..storage import FactStore, make_store

__all__ = ["SnapshotLease", "SnapshotManager", "SnapshotVersion"]


class SnapshotVersion:
    """One immutable EDB version: a frozen store plus its bookkeeping.

    ``caches`` is what has been computed for exactly this EDB; it lives
    on the version so that version GC drops it together with the store.
    A version is published with the cache carried forward from its
    predecessor, never with an empty one to be swapped later.
    """

    __slots__ = ("number", "store", "refs", "caches")

    def __init__(self, number: int, store: FactStore, caches: FixpointCache):
        self.number = number
        self.store = store
        self.refs = 0
        self.caches = caches

    def __repr__(self) -> str:
        return (
            f"SnapshotVersion(v{self.number}, {len(self.store)} atoms, "
            f"{self.refs} reader(s))"
        )


class SnapshotLease:
    """A refcounted read lease on one :class:`SnapshotVersion`.

    Release is idempotent (streams release on exhaustion *and* carry a
    GC finalizer as a backstop for abandoned streams).  Usable as a
    context manager.
    """

    __slots__ = ("_manager", "_version", "_released")

    def __init__(self, manager: "SnapshotManager", version: SnapshotVersion):
        self._manager = manager
        self._version = version
        self._released = False

    @property
    def version(self) -> int:
        return self._version.number

    @property
    def store(self) -> FactStore:
        return self._version.store

    @property
    def snapshot(self) -> SnapshotVersion:
        return self._version

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the lease; the first call decrements, the rest no-op."""
        if self._released:
            return
        self._released = True
        self._manager._release(self._version)

    def __enter__(self) -> "SnapshotLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"SnapshotLease(v{self.version}, {state})"


class SnapshotManager:
    """The version store: installs immutable EDB versions, hands out
    leases, and collects versions nobody can read any more."""

    def __init__(
        self,
        atoms: Iterable[Atom] = (),
        *,
        store: str = "instance",
    ):
        self._store_name = store
        self._lock = threading.Lock()
        #: Serializes :meth:`install`, which builds the successor
        #: outside ``_lock`` so that readers keep being admitted.
        self._install_lock = threading.Lock()
        base = make_store(store, atoms)
        base.freeze()
        head = SnapshotVersion(0, base, FixpointCache(base))
        self._head = head
        #: Live versions: the head plus every version some lease holds.
        self._versions: Dict[int, SnapshotVersion] = {0: head}
        self.collected = 0

    # -- read side ---------------------------------------------------------

    @property
    def head(self) -> SnapshotVersion:
        """The newest version, unleased: for the writer and for
        reports — a reader takes :meth:`current`."""
        return self._head

    @property
    def head_version(self) -> int:
        return self._head.number

    def current(self) -> SnapshotLease:
        """A lease on the newest version (refcount +1)."""
        with self._lock:
            version = self._head
            version.refs += 1
            return SnapshotLease(self, version)

    def _release(self, version: SnapshotVersion) -> None:
        with self._lock:
            version.refs -= 1
            self._collect_locked()

    # -- write side --------------------------------------------------------

    def install(
        self,
        inserted: Tuple[Atom, ...],
        retracted: Tuple[Atom, ...],
    ) -> Tuple[SnapshotVersion, list, list]:
        """Install the next version: head ∖ *retracted* ∪ *inserted*.

        The new store is a copy of the head's, so the previous head is
        untouched — in-flight readers are unaffected.

        The head's cache is carried across the batch
        (:meth:`FixpointCache.advance`, on copies) *before* the version
        becomes head, and store and cache are published together: a
        reader is admitted on the old head, warm, or on the new head,
        warm — never on a head whose cache is still being built.
        Returns the version with ``advance``'s ``maintained`` and
        ``fallbacks`` lists.
        """
        with self._install_lock:
            previous = self._head
            store = previous.store.copy()
            store.discard_all(retracted)
            store.add_all(inserted)
            store.freeze()
            caches, maintained, fallbacks = previous.caches.advance(
                inserted, retracted, store
            )
            version = SnapshotVersion(previous.number + 1, store, caches)
            with self._lock:
                self._versions[version.number] = version
                self._head = version
                self._collect_locked()
            return version, maintained, fallbacks

    # -- garbage collection ------------------------------------------------

    def _collect_locked(self) -> None:
        """Drop every non-head version with no readers (lock held)."""
        dead = [
            number
            for number, version in self._versions.items()
            if version.refs == 0 and version is not self._head
        ]
        for number in dead:
            del self._versions[number]
        self.collected += len(dead)

    # -- observability -----------------------------------------------------

    @property
    def live_versions(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._versions))

    def refcounts(self) -> Dict[int, int]:
        """Per-version reader refcounts for every live version."""
        with self._lock:
            return {
                number: version.refs
                for number, version in sorted(self._versions.items())
            }

    def versions_snapshot(self) -> Tuple[SnapshotVersion, ...]:
        """The live versions, head first then ascending — the
        measurement order that attributes shared structure (the
        interning table) to the head."""
        with self._lock:
            return self._live_locked()

    def _live_locked(self) -> Tuple[SnapshotVersion, ...]:
        head = self._head
        rest = sorted(
            (v for v in self._versions.values() if v is not head),
            key=lambda v: v.number,
        )
        return (head, *rest)

    def stats(
        self, live: Optional[Tuple[SnapshotVersion, ...]] = None
    ) -> dict:
        """Head, live versions and their refcounts — of *live* (a
        :meth:`versions_snapshot` a caller measured, so its report and
        these figures name the same versions) or of one read now."""
        with self._lock:
            if live is None:
                live = self._live_locked()
            return {
                "head_version": live[0].number,
                "head_atoms": len(live[0].store),
                "live_versions": len(live),
                "refcounts": {
                    str(version.number): version.refs
                    for version in sorted(live, key=lambda v: v.number)
                },
                "collected": self.collected,
                "store": _store_label(self._store_name),
            }

    def __repr__(self) -> str:
        return (
            f"SnapshotManager(head=v{self._head.number}, "
            f"{len(self._versions)} live, {self.collected} collected)"
        )
