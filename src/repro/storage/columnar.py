"""Interned columnar fact storage.

:class:`ColumnarStore` keeps each predicate's facts as tuples of
integer term-ids (one :class:`~repro.storage.interning.TermTable` per
store), instead of the per-atom Python objects an
:class:`~repro.core.instance.Instance` holds.  The design follows the
Vadalog record-manager: cheap appends, hash indexes built lazily per
(predicate, position) on first probe, and a small LRU cache in front of
repeated ``matching`` probes (the access pattern the chase's trigger
discovery and the operator network's joins produce).

Space characteristics compared to ``Instance``:

* each fact is one tuple of ints plus one hash-set slot for
  deduplication — no ``Atom``/``Constant`` objects per occurrence;
* a position index exists only for positions actually probed, and maps
  term-id → row numbers (ints), not term → set-of-atoms;
* every distinct term is materialized exactly once, in the term table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..core.atoms import Atom
from ..core.memory import deep_sizeof
from ..core.store import FactStore, MemoryReport
from ..core.terms import Term
from .interning import TermTable
from .relation import Relation, Row

__all__ = ["ColumnarStore"]


class ColumnarStore(FactStore):
    """A :class:`FactStore` over interned term-id tuples.

    ``probe_cache_size`` bounds the LRU cache of materialized
    ``matching_bound`` results; 0 disables caching.
    """

    backend_name = "columnar"
    kernel_capable = True

    def __init__(
        self,
        atoms: Iterable[Atom] = (),
        *,
        probe_cache_size: int = 128,
        table: Optional[TermTable] = None,
    ):
        # ``table`` lets several stores share one interning table (a
        # base and the overlay delta above it): ids are table-global,
        # the shared object is charged once by ``memory_report``'s
        # visited-set, and terms the base already interned cost the
        # delta nothing.
        self._table = table if table is not None else TermTable()
        # predicate → arity → relation (mixed arities are legal, as in
        # Instance, though schema_of() rejects them downstream).
        self._relations: Dict[str, Dict[int, Relation]] = {}
        self._size = 0
        self._probe_cache_size = probe_cache_size
        # probe key → [matching rows, decoded atoms or None]: rows are
        # snapshotted at probe time, atoms memoized on first full drain.
        self._probe_cache: OrderedDict[tuple, list] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        # Guards the probe cache and the lazy index builds: reads are
        # not pure on this backend (a cold probe builds an index and
        # populates the LRU), so two threads probing one frozen
        # snapshot concurrently would otherwise race those structures.
        self._probe_lock = threading.Lock()
        self.add_all(atoms)

    # -- relations, as the kernels see them --------------------------------

    @property
    def table(self) -> TermTable:
        """The interning table (shared across one base/delta family)."""
        return self._table

    def _relation(self, predicate: str, arity: int) -> Relation:
        """The relation for (predicate, arity), created on first use."""
        by_arity = self._relations.setdefault(predicate, {})
        relation = by_arity.get(arity)
        if relation is None:
            relation = by_arity[arity] = Relation()
        return relation

    def parts(
        self, predicate: str, arity: int, ids: Optional[Iterable[int]] = None
    ) -> Iterator[Tuple[int, Relation]]:
        """The resident parts of one relation as ``(part id, Relation)``.

        A columnar relation is a single part (id 0), yielded when it
        holds rows; *ids* restricts the walk to the named parts.  The
        yielded object is the stored relation itself, not a copy.
        """
        relation = self._relations.get(predicate, {}).get(arity)
        if relation is not None and relation.rows:
            yield 0, relation

    def extend_rows(
        self, predicate: str, arity: int, rows: Iterable[Row]
    ) -> List[Tuple[int, int, List[Row]]]:
        """Append interned id rows to one relation, deduplicating.

        Returns ``(part id, first new row number, new rows)`` for each
        part that grew — the new rows sit at consecutive numbers from
        there, which is all a caller needs to treat them as a delta.
        Rows must be *arity*-long tuples of ids from :attr:`table`
        (the kernels build them from rows they read here).
        """
        self._check_mutable()
        relation = self._relation(predicate, arity)
        start = len(relation.rows)
        new = relation.extend(rows)
        self._size += len(new)
        return [(0, start, new)] if new else []

    def release_indexes(self) -> None:
        """Drop every lazily built hash index (each is rebuilt on its
        next probe) — how an engine returns its join indexes when it is
        done, so a saturated store costs its rows, not its last joins."""
        with self._probe_lock:
            for by_arity in self._relations.values():
                for relation in by_arity.values():
                    relation.indexes.clear()

    # -- encoding ----------------------------------------------------------

    def _encode(self, atom: Atom) -> Row:
        return tuple(self._table.intern(term) for term in atom.args)

    def _try_encode(self, atom: Atom) -> Optional[Row]:
        """Encode without interning; None if any term is unknown."""
        row = []
        for term in atom.args:
            tid = self._table.id_of(term)
            if tid is None:
                return None
            row.append(tid)
        return tuple(row)

    def _decode(self, predicate: str, row: Row) -> Atom:
        return Atom(predicate, tuple(self._table.term(tid) for tid in row))

    # -- mutation ----------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        if not atom.is_ground():
            raise ValueError(f"stores contain ground atoms only, got {atom}")
        self._check_mutable()
        relation = self._relation(atom.predicate, atom.arity)
        if relation.append(self._encode(atom)):
            self._size += 1
            return True
        return False

    def discard(self, atom: Atom) -> bool:
        if not isinstance(atom, Atom):
            return False
        self._check_mutable()
        relation = self._relations.get(atom.predicate, {}).get(atom.arity)
        if relation is None:
            return False
        row = self._try_encode(atom)
        if row is None or not relation.discard(row):
            return False
        # Stale probe-cache entries die with the relation version bump;
        # interned terms stay (re-insertion is cheap and ids are stable).
        self._size -= 1
        return True

    # -- membership and iteration -----------------------------------------

    def __contains__(self, atom: object) -> bool:
        if not isinstance(atom, Atom):
            return False
        relation = self._relations.get(atom.predicate, {}).get(atom.arity)
        if relation is None:
            return False
        row = self._try_encode(atom)
        return row is not None and row in relation.row_pos

    def __iter__(self) -> Iterator[Atom]:
        for predicate, by_arity in self._relations.items():
            for relation in by_arity.values():
                for row in relation.rows:
                    yield self._decode(predicate, row)

    def __len__(self) -> int:
        return self._size

    def count(self, predicate: Optional[str] = None) -> int:
        if predicate is None:
            return self._size
        return sum(
            len(relation.rows)
            for relation in self._relations.get(predicate, {}).values()
        )

    # -- retrieval ---------------------------------------------------------

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        for relation in list(self._relations.get(predicate, {}).values()):
            # Snapshot of the row list: callers may add while consuming.
            for row in list(relation.rows):
                yield self._decode(predicate, row)

    def predicates(self) -> set[str]:
        return {
            predicate
            for predicate, by_arity in self._relations.items()
            if any(relation.rows for relation in by_arity.values())
        }

    def matching_bound(
        self,
        predicate: str,
        bound: Mapping[int, Term],
        arity: Optional[int] = None,
    ) -> Iterator[Atom]:
        by_arity = self._relations.get(predicate)
        if not by_arity:
            return
        relations = (
            [(arity, by_arity[arity])] if arity is not None and arity in by_arity
            else [] if arity is not None
            else list(by_arity.items())
        )
        for rel_arity, relation in relations:
            if not bound:
                for row in list(relation.rows):
                    yield self._decode(predicate, row)
                continue
            if any(position > rel_arity for position in bound):
                continue
            encoded: Dict[int, int] = {}
            unknown = False
            for position, term in bound.items():
                tid = self._table.id_of(term)
                if tid is None:
                    unknown = True
                    break
                encoded[position - 1] = tid
            if unknown:
                continue
            yield from self._probe(predicate, rel_arity, relation, encoded)

    def _probe(
        self, predicate: str, arity: int, relation: Relation,
        encoded: Dict[int, int],
    ) -> Iterator[Atom]:
        """Probe through the best index, LRU-cached per relation version.

        The matching *rows* are materialized up front, before the first
        yield: this generator may be suspended across store mutations,
        and a ``discard`` swap-remove moves rows under previously
        snapshotted row numbers — dereferencing them lazily used to
        yield a wrong atom at the probe position (or raise IndexError).
        Snapshotting rows also matches :meth:`by_predicate`'s contract
        (the result reflects the store at probe start) and lets every
        probe populate the cache whether or not the consumer drains it,
        so repeated existence checks on one key hit the cache instead
        of re-scanning.  Only decoding stays lazy (per pull).

        Counter semantics (pinned by ``test_storage``): each ``_probe``
        call is exactly one ``cache_hits`` or one ``cache_misses``,
        partial drains included.

        Thread safety: the lookup/compute/publish section runs under
        ``_probe_lock`` — cold probes *write* (they build the lazy
        index and insert into the LRU), and two unsynchronized readers
        on the same cold (predicate, position) used to race the index
        dict and the OrderedDict reordering.  The lock is released
        before the first yield, so decoding and consumption proceed
        concurrently; the post-drain memoization writes an immutable
        tuple into a list slot, which is atomic and idempotent (racing
        drains decode the same frozen rows).
        """
        key = (
            predicate,
            arity,
            relation.version,
            tuple(sorted(encoded.items())),
        )
        with self._probe_lock:
            entry = self._probe_cache.get(key)
            if entry is not None:
                self.cache_hits += 1
                self._probe_cache.move_to_end(key)
            else:
                self.cache_misses += 1
                entry = [relation.matching(encoded), None]
                if self._probe_cache_size > 0:
                    self._probe_cache[key] = entry
                    while len(self._probe_cache) > self._probe_cache_size:
                        self._probe_cache.popitem(last=False)
        rows, decoded = entry
        if decoded is not None:
            yield from decoded
            return
        collected: List[Atom] = []
        for row in rows:
            atom = self._decode(predicate, row)
            collected.append(atom)
            yield atom
        # Full drain: memoize the decoded atoms so repeated hits on
        # this (relation version, probe) stop paying per-row decoding.
        entry[1] = tuple(collected)

    # -- lifecycle ---------------------------------------------------------

    def fresh(self) -> "ColumnarStore":
        """An empty store *sharing this store's interning table*.

        ``fresh()`` is how :class:`~repro.storage.delta.DeltaOverlay`
        builds its delta layer; sharing the table means re-deriving a
        base term in the delta re-uses the base's id and object instead
        of interning a second copy — the interning cost of a base/delta
        stack is one table, counted once.  The table is append-only and
        its intern path is thread-safe, so sharing it with a frozen
        base is sound: existing ids never change.
        """
        return ColumnarStore(
            probe_cache_size=self._probe_cache_size, table=self._table
        )

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Probe-cache and index statistics (observability for tests)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_entries": len(self._probe_cache),
            "indexes_built": sum(
                len(relation.indexes)
                for by_arity in self._relations.values()
                for relation in by_arity.values()
            ),
            "terms_interned": len(self._table),
        }

    def memory_report(self, seen: Optional[set[int]] = None) -> MemoryReport:
        if seen is None:
            seen = set()
        columns = 0
        dedup = 0
        indexes = 0
        for by_arity in self._relations.values():
            for relation in by_arity.values():
                columns += deep_sizeof(relation.rows, seen)
                dedup += deep_sizeof(relation.row_pos, seen)
                indexes += deep_sizeof(relation.indexes, seen)
        terms = self._table.measured_bytes(seen)
        cache = deep_sizeof(self._probe_cache, seen)
        components = {
            "columns": columns,
            "dedup": dedup,
            "indexes": indexes,
            "terms": terms,
            "probe_cache": cache,
        }
        return MemoryReport(
            backend=self.backend_name,
            atom_count=self._size,
            term_count=len(self._table),
            components=components,
        )

    def __repr__(self) -> str:
        return f"ColumnarStore({self._size} atoms, {len(self._table)} terms)"
