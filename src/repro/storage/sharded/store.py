"""Out-of-core, budgeted, hash-partitioned fact storage.

:class:`ShardedStore` implements the full :class:`~repro.core.store.
FactStore` surface over *shards*: each (predicate, arity) relation is
hash-partitioned on a key position into a fixed number of shards, each
resident shard a small :class:`~repro.storage.relation.Relation` of
interned term-id rows.  Shards are the unit of

* **locality** — a probe bound on the partition key touches exactly one
  shard;
* **memory control** — resident shards are tracked against a byte
  budget; when the estimate exceeds it, least-recently-used shards are
  *evicted*: their rows persist as a :class:`~repro.storage.sharded.
  spill.SpillPager` page and the resident set is dropped.  A later
  touch reloads the page transparently.

All shards share **one** interning table, so a term costs its object
exactly once however many shards (or overlay layers above the store)
mention it, and evicted pages stay decodable — ids are stable.

The store composes with everything built against ``FactStore``: a
:class:`~repro.storage.delta.DeltaOverlay` can layer a writable delta
over a frozen sharded base (the delta shares the base's interning
table via :meth:`fresh`), ``freeze()`` seals the atom set while read
paths may still page shards in and out (internal state, never
observable content), and ``memory_report()`` splits the accounting
into resident components and spilled page bytes.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ...core.atoms import Atom
from ...core.memory import deep_sizeof
from ...core.store import FactStore, MemoryReport
from ...core.terms import Term
from ..interning import TermTable
from ..relation import Relation, Row
from .spill import SpillPager

__all__ = ["ShardedStore", "DEFAULT_SHARDS"]

#: Default shard count per relation — small enough that empty shards
#: cost nothing, large enough for useful probe parallelism.
DEFAULT_SHARDS = 8

#: Fibonacci-hash multiplier: spreads dense term-ids across shards.
_MIX = 0x9E3779B1

#: Distinct spill-file names for stores sharing one ``spill_dir``.
_spill_seq = itertools.count()


def _row_cost(arity: int) -> int:
    """Estimated resident bytes one row adds to a shard.

    Deliberately generous (tuple header + per-slot pointers + hash-set
    slot + a share of the boxed ids): the budget enforcement acts on
    this estimate, so overestimating errs toward evicting early —
    the safe side of a memory bound.
    """
    return 120 + 8 * arity


class _Shard:
    """One hash partition of a relation: a resident
    :class:`~repro.storage.relation.Relation` or a spill page.

    ``relation is None`` means evicted — the rows live in the pager, in
    row-number order, and ``count`` (always valid) remembers the
    cardinality; a reload rebuilds the relation with the same
    numbering (its indexes are rebuilt lazily).  ``dirty`` tracks
    whether the resident rows differ from the persisted page, so
    evicting an unchanged reloaded shard skips the rewrite.
    """

    __slots__ = ("relation", "count", "estimate", "dirty", "paged")

    def __init__(self) -> None:
        self.relation: Optional[Relation] = Relation()
        self.count = 0
        self.estimate = 0
        self.dirty = False
        self.paged = False  # a page for this shard exists in the pager

    @property
    def resident(self) -> bool:
        return self.relation is not None


class _ShardedRelation:
    """One predicate at one arity: a fixed array of shards."""

    __slots__ = ("predicate", "arity", "key", "shards", "version")

    def __init__(self, predicate: str, arity: int, key_position: int,
                 num_shards: int):
        self.predicate = predicate
        self.arity = arity
        # 0-based partition position; -1 parks zero-arity relations
        # (and any arity shorter than the configured key) in shard 0.
        key = key_position - 1
        self.key = key if 0 <= key < arity else (0 if arity else -1)
        self.shards: List[_Shard] = [_Shard() for _ in range(num_shards)]
        self.version = 0

    def shard_of(self, row: Row) -> int:
        if self.key < 0:
            return 0
        return ((row[self.key] * _MIX) & 0xFFFFFFFF) % len(self.shards)

    @property
    def count(self) -> int:
        return sum(shard.count for shard in self.shards)


class ShardedStore(FactStore):
    """A :class:`FactStore` that hash-partitions relations into
    spillable shards under a resident-byte budget.

    ``memory_budget`` bounds the *estimated* resident bytes of shard
    rows (None: unbounded, nothing ever spills); the resident set may
    transiently exceed it by at most one shard (the store never evicts
    the shard it is currently touching, which would livelock a single
    oversized shard).  ``key_position`` is the 1-based argument
    position relations are partitioned on, following the paper's
    ``R[i]`` notation.  ``spill_dir`` hosts the SQLite spill file
    (a private temporary directory when omitted, reclaimed with the
    store).
    """

    backend_name = "sharded"
    kernel_capable = True

    def __init__(
        self,
        atoms: Iterable[Atom] = (),
        *,
        memory_budget: Optional[int] = None,
        num_shards: int = DEFAULT_SHARDS,
        key_position: int = 1,
        spill_dir: Union[str, Path, None] = None,
        table: Optional[TermTable] = None,
    ):
        if memory_budget is not None and memory_budget <= 0:
            raise ValueError("memory_budget must be positive (or None)")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if key_position < 1:
            raise ValueError("key_position is 1-based; must be >= 1")
        self._table = table if table is not None else TermTable()
        self._budget = memory_budget
        self._num_shards = num_shards
        self._key_position = key_position
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        path = None
        if self._spill_dir is not None:
            path = self._spill_dir / (
                f"spill-{os.getpid()}-{next(_spill_seq)}.sqlite"
            )
        self._pager = SpillPager(path)
        self._finalizer = weakref.finalize(self, self._pager.close)
        self._relations: Dict[str, Dict[int, _ShardedRelation]] = {}
        self._size = 0
        #: Resident shards in LRU order (oldest first).
        self._lru: "OrderedDict[Tuple[str, int, int], _Shard]" = OrderedDict()
        self._resident_estimate = 0
        #: One lock for all structural state: adds, discards, loads and
        #: evictions all move rows between RAM and the pager, and read
        #: paths (probes, containment) may trigger loads — so reads are
        #: not pure here any more than ColumnarStore's are.
        self._lock = threading.RLock()
        self.evictions = 0
        self.reloads = 0
        self.add_all(atoms)

    # -- configuration -----------------------------------------------------

    @property
    def memory_budget(self) -> Optional[int]:
        return self._budget

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def key_position(self) -> int:
        return self._key_position

    @property
    def table(self) -> TermTable:
        """The shared interning table (one per shard *family*)."""
        return self._table

    @property
    def pager(self) -> SpillPager:
        return self._pager

    # -- encoding ----------------------------------------------------------

    def _encode(self, atom: Atom) -> Row:
        return tuple(self._table.intern(term) for term in atom.args)

    def _try_encode(self, atom: Atom) -> Optional[Row]:
        row = []
        for term in atom.args:
            tid = self._table.id_of(term)
            if tid is None:
                return None
            row.append(tid)
        return tuple(row)

    def _decode(self, predicate: str, row: Row) -> Atom:
        return Atom(predicate, tuple(self._table.term(tid) for tid in row))

    # -- shard residency ---------------------------------------------------

    def _touch(self, relation: _ShardedRelation, index: int,
               shard: _Shard) -> None:
        """Mark *shard* most-recently-used (lock held)."""
        key = (relation.predicate, relation.arity, index)
        if key in self._lru:
            self._lru.move_to_end(key)
        else:
            self._lru[key] = shard

    def _load(self, relation: _ShardedRelation, index: int,
              shard: _Shard) -> None:
        """Page an evicted shard back in (lock held)."""
        if shard.resident:
            return
        rows = self._pager.read(relation.predicate, relation.arity, index)
        shard.relation = Relation(rows if rows is not None else ())
        shard.estimate = shard.count * _row_cost(relation.arity)
        shard.dirty = False
        self._resident_estimate += shard.estimate
        self.reloads += 1

    def _evict(self, key: Tuple[str, int, int], shard: _Shard) -> None:
        """Spill one resident shard (lock held)."""
        predicate, arity, index = key
        if shard.dirty or not shard.paged:
            if shard.count:
                self._pager.write(
                    predicate, arity, index, shard.relation.rows
                )
                shard.paged = True
            elif shard.paged:
                self._pager.delete(predicate, arity, index)
                shard.paged = False
        shard.relation = None
        self._resident_estimate -= shard.estimate
        shard.estimate = 0
        shard.dirty = False
        self.evictions += 1

    def _enforce_budget(self, keep: Tuple[str, int, int]) -> None:
        """Evict LRU shards until the estimate fits the budget (lock
        held).  *keep* — the shard being touched — is never evicted."""
        if self._budget is None:
            return
        while self._resident_estimate > self._budget and len(self._lru) > 1:
            key = next(iter(self._lru))
            if key == keep:
                self._lru.move_to_end(key)
                key = next(iter(self._lru))
                if key == keep:  # keep is the only resident shard
                    break
            self._evict(key, self._lru.pop(key))

    def _resident(self, relation: _ShardedRelation, index: int,
                  shard: _Shard) -> Relation:
        """The shard's relation, paging it in and touching LRU (lock
        held)."""
        self._load(relation, index, shard)
        self._touch(relation, index, shard)
        self._enforce_budget((relation.predicate, relation.arity, index))
        return shard.relation

    def _peek_rows(self, relation: _ShardedRelation, index: int,
                   shard: _Shard) -> List[Row]:
        """A snapshot of the shard's rows *without* changing residency.

        Full scans (iteration, unbound probes) read evicted pages
        straight from the pager instead of thrashing the LRU — a scan
        of a store bigger than its budget must not evict the hot set.
        """
        if shard.resident:
            return list(shard.relation.rows)
        if not shard.count:
            return []
        rows = self._pager.read(relation.predicate, relation.arity, index)
        return rows if rows is not None else []

    # -- relations, as the kernels see them --------------------------------

    def _relation(self, predicate: str, arity: int) -> _ShardedRelation:
        """The relation for (predicate, arity), created on first use
        (lock held)."""
        by_arity = self._relations.setdefault(predicate, {})
        relation = by_arity.get(arity)
        if relation is None:
            relation = by_arity[arity] = _ShardedRelation(
                predicate, arity, self._key_position, self._num_shards
            )
        return relation

    def _grew(self, relation: _ShardedRelation, index: int, shard: _Shard,
              added: int) -> None:
        """Account *added* new rows in a resident shard (lock held)."""
        cost = _row_cost(relation.arity) * added
        shard.count += added
        shard.dirty = True
        shard.estimate += cost
        self._resident_estimate += cost
        self._size += added
        self._enforce_budget((relation.predicate, relation.arity, index))

    def parts(
        self, predicate: str, arity: int, ids: Optional[Iterable[int]] = None
    ) -> Iterator[Tuple[int, Relation]]:
        """The non-empty shards of one relation as ``(shard index,
        Relation)``, each paged in (LRU-touched, budget enforced) just
        before it is yielded — so a consumer that finishes with one
        part before pulling the next holds at most one shard beyond
        what the budget keeps resident.  *ids* restricts the walk to
        the named shards.  The yielded object is the stored shard
        itself; it may be evicted once the next part is pulled, and a
        reload preserves its row numbering.
        """
        relation = self._relations.get(predicate, {}).get(arity)
        if relation is None:
            return
        for index in (range(self._num_shards) if ids is None else ids):
            shard = relation.shards[index]
            if shard.count:
                with self._lock:
                    part = self._resident(relation, index, shard)
                yield index, part

    def extend_rows(
        self, predicate: str, arity: int, rows: Iterable[Row]
    ) -> List[Tuple[int, int, List[Row]]]:
        """Append interned id rows to one relation, deduplicating.

        Same contract as :meth:`ColumnarStore.extend_rows`, except that
        a part may be reported more than once.  Rows are grouped by
        target shard so each shard is paged in once per pass, and the
        byte budget is enforced after each shard's group, the same
        discipline as per-atom ``add``.  The grouping buffer is charged
        to the budget as well: a pass takes at most a budget's worth of
        rows from *rows* (all of them when unbudgeted), so a lazily
        produced batch is never materialized whole.
        """
        self._check_mutable()
        rows = iter(rows)
        per_pass = (
            None if self._budget is None
            else max(1, self._budget // _row_cost(arity))
        )
        grew: List[Tuple[int, int, List[Row]]] = []
        with self._lock:
            relation = self._relation(predicate, arity)
            while True:
                grouped: Dict[int, List[Row]] = {}
                for row in itertools.islice(rows, per_pass):
                    grouped.setdefault(relation.shard_of(row), []).append(row)
                if not grouped:
                    break
                for index, batch in grouped.items():
                    shard = relation.shards[index]
                    new = self._resident(relation, index, shard).extend(batch)
                    if new:
                        grew.append((index, shard.count, new))
                        self._grew(relation, index, shard, len(new))
            if grew:
                relation.version += 1
        return grew

    def release_indexes(self) -> None:
        """Drop the hash indexes of every resident shard (an evicted
        shard's went with it); each is rebuilt on its next probe."""
        with self._lock:
            for shard in self._lru.values():
                shard.relation.indexes.clear()

    # -- mutation ----------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        if not atom.is_ground():
            raise ValueError(f"stores contain ground atoms only, got {atom}")
        self._check_mutable()
        row = self._encode(atom)
        with self._lock:
            relation = self._relation(atom.predicate, atom.arity)
            index = relation.shard_of(row)
            shard = relation.shards[index]
            if not self._resident(relation, index, shard).append(row):
                return False
            self._grew(relation, index, shard, 1)
            relation.version += 1
            return True

    def discard(self, atom: Atom) -> bool:
        if not isinstance(atom, Atom):
            return False
        self._check_mutable()
        with self._lock:
            relation = self._relations.get(atom.predicate, {}).get(atom.arity)
            if relation is None:
                return False
            row = self._try_encode(atom)
            if row is None:
                return False
            index = relation.shard_of(row)
            shard = relation.shards[index]
            if not self._resident(relation, index, shard).discard(row):
                return False
            shard.count -= 1
            shard.dirty = True
            cost = _row_cost(relation.arity)
            shard.estimate -= cost
            self._resident_estimate -= cost
            relation.version += 1
            self._size -= 1
            return True

    # -- membership and iteration -----------------------------------------

    def __contains__(self, atom: object) -> bool:
        if not isinstance(atom, Atom):
            return False
        with self._lock:
            relation = self._relations.get(atom.predicate, {}).get(atom.arity)
            if relation is None:
                return False
            row = self._try_encode(atom)
            if row is None:
                return False
            index = relation.shard_of(row)
            shard = relation.shards[index]
            if not shard.count:
                return False
            if shard.resident:
                self._touch(relation, index, shard)
                return row in shard.relation
            # Membership on an evicted shard peeks at the page without
            # paying a full reload — one containment check must not
            # disturb the resident working set.
            return row in self._peek_rows(relation, index, shard)

    def _snapshots(
        self, predicate: Optional[str] = None
    ) -> Iterator[Tuple[str, List[Row]]]:
        """Per-shard row snapshots (decoding happens outside the lock)."""
        with self._lock:
            if predicate is None:
                relations = [
                    relation
                    for by_arity in self._relations.values()
                    for relation in by_arity.values()
                ]
            else:
                relations = list(self._relations.get(predicate, {}).values())
            batches = [
                (relation.predicate,
                 self._peek_rows(relation, index, shard))
                for relation in relations
                for index, shard in enumerate(relation.shards)
                if shard.count
            ]
        return iter(batches)

    def __iter__(self) -> Iterator[Atom]:
        for predicate, rows in self._snapshots():
            for row in rows:
                yield self._decode(predicate, row)

    def __len__(self) -> int:
        return self._size

    def count(self, predicate: Optional[str] = None) -> int:
        if predicate is None:
            return self._size
        with self._lock:
            return sum(
                relation.count
                for relation in self._relations.get(predicate, {}).values()
            )

    # -- retrieval ---------------------------------------------------------

    def by_predicate(self, predicate: str) -> Iterator[Atom]:
        for pred, rows in self._snapshots(predicate):
            for row in rows:
                yield self._decode(pred, row)

    def predicates(self) -> set:
        with self._lock:
            return {
                predicate
                for predicate, by_arity in self._relations.items()
                if any(relation.count for relation in by_arity.values())
            }

    def _encode_bound(
        self, relation: _ShardedRelation, bound: Mapping[int, Term]
    ) -> Optional[Dict[int, int]]:
        """0-based position → term-id, or None if any term is unknown
        (then nothing can match) — mirrors the columnar probe."""
        encoded: Dict[int, int] = {}
        for position, term in bound.items():
            tid = self._table.id_of(term)
            if tid is None:
                return None
            encoded[position - 1] = tid
        return encoded

    def _matched_rows(
        self, relation: _ShardedRelation, encoded: Dict[int, int]
    ) -> List[Row]:
        """All rows agreeing with the bound positions (lock held).

        A probe bound on the partition key touches exactly one shard —
        paged in and LRU-touched (probes define the hot set) and
        answered through that shard's own hash index; any other probe
        scans every shard through page peeks.  Matches are
        materialized before the first yield, so a consumer suspended
        across ``discard`` calls still sees the probe-time snapshot
        (the interleaving that corrupted the columnar probe in PR 5).
        """
        if relation.key in encoded:
            tid = encoded[relation.key]
            index = ((tid * _MIX) & 0xFFFFFFFF) % len(relation.shards)
            shard = relation.shards[index]
            if not shard.count:
                return []
            return self._resident(relation, index, shard).matching(encoded)
        matched: List[Row] = []
        for index, shard in enumerate(relation.shards):
            if not shard.count:
                continue
            for row in self._peek_rows(relation, index, shard):
                if all(row[p] == t for p, t in encoded.items()):
                    matched.append(row)
        return matched

    def matching_bound(
        self,
        predicate: str,
        bound: Mapping[int, Term],
        arity: Optional[int] = None,
    ) -> Iterator[Atom]:
        with self._lock:
            by_arity = self._relations.get(predicate)
            if not by_arity:
                return iter(())
            relations = (
                [by_arity[arity]] if arity is not None and arity in by_arity
                else [] if arity is not None
                else list(by_arity.values())
            )
            matched: List[Tuple[str, Row]] = []
            for relation in relations:
                if any(position > relation.arity for position in bound):
                    continue
                encoded = self._encode_bound(relation, bound)
                if encoded is None:
                    continue
                matched.extend(
                    (relation.predicate, row)
                    for row in self._matched_rows(relation, encoded)
                )
        return (self._decode(pred, row) for pred, row in matched)

    # -- lifecycle ---------------------------------------------------------

    def fresh(self) -> "ShardedStore":
        """An empty store with this store's configuration, sharing the
        interning table (its spill file, if any, is its own)."""
        return ShardedStore(
            memory_budget=self._budget,
            num_shards=self._num_shards,
            key_position=self._key_position,
            spill_dir=self._spill_dir,
            table=self._table,
        )

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Residency and paging counters (observability for tests)."""
        with self._lock:
            resident = len(self._lru)
            spilled = sum(
                1
                for by_arity in self._relations.values()
                for relation in by_arity.values()
                for shard in relation.shards
                if not shard.resident and shard.count
            )
            return {
                "resident_shards": resident,
                "spilled_shards": spilled,
                "resident_estimate": self._resident_estimate,
                "memory_budget": self._budget,
                "evictions": self.evictions,
                "reloads": self.reloads,
                "spill_pages": self._pager.pages,
                "spill_bytes": self._pager.bytes,
                "terms_interned": len(self._table),
            }

    def memory_report(self, seen: Optional[set] = None) -> MemoryReport:
        if seen is None:
            seen = set()
        with self._lock:
            shards_bytes = 0
            map_bytes = 0
            for by_arity in self._relations.values():
                for relation in by_arity.values():
                    for shard in relation.shards:
                        if shard.resident:
                            shards_bytes += deep_sizeof(shard.relation, seen)
                        map_bytes += (
                            sys.getsizeof(shard)
                            + sys.getsizeof(shard.count)
                            + sys.getsizeof(shard.estimate)
                        )
                    map_bytes += sys.getsizeof(relation)
            terms = self._table.measured_bytes(seen)
            spilled = {"pages": self._pager.bytes}
            components = {
                "shards": shards_bytes,
                "shard_map": map_bytes,
                "terms": terms,
            }
            return MemoryReport(
                backend=self.backend_name,
                atom_count=self._size,
                term_count=len(self._table),
                components=components,
                spilled=spilled,
            )

    def __repr__(self) -> str:
        budget = (
            f"{self._budget}B budget" if self._budget is not None
            else "unbounded"
        )
        return (
            f"ShardedStore({self._size} atoms, {len(self._table)} terms, "
            f"{self._num_shards} shards/relation, {budget}, "
            f"{self._pager.pages} spilled page(s))"
        )
