"""The one relation primitive: dense interned rows plus hash indexes.

A :class:`Relation` is what every id-array backend stores per
(predicate, arity) — or per shard of one — and what the compiled
kernels (:mod:`repro.kernels.runtime`) join *in place*: following the
Vadalog record manager, one buffer the operators share rather than one
copy per consumer.

* ``rows`` is dense and append-ordered: a row keeps its number until a
  ``discard`` swap-removes it, so "rows numbered below *n*" is a stable
  notion of "rows that existed before" — the watermark semi-naive
  deltas are expressed in.  Rebuilding a relation from its ``rows``
  (a shard reloaded from its spill page) reproduces the numbering.
* ``row_pos`` maps a row to its number: the dedup set and the handle
  that makes swap-remove O(arity + built indexes).
* ``indexes`` are built lazily per probed position *tuple* and kept
  coherent by every mutation.  Single-column indexes key on the bare
  id (no tuple allocation per probe); composite ones on id tuples.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Tuple

__all__ = ["Relation", "Row"]

Row = Tuple[int, ...]


def _key(row: Row, positions: Tuple[int, ...]):
    """The index key of *row*: the bare id for one column, an id tuple
    for several (what ``itemgetter(*positions)`` returns in bulk)."""
    if len(positions) == 1:
        return row[positions[0]]
    return tuple(row[p] for p in positions)


def _index_rows(index: dict, positions: Tuple[int, ...],
                rows: List[Row], start: int) -> None:
    """Enter *rows* (numbered from *start*) into one hash index."""
    key_of = itemgetter(*positions)
    for number, row in enumerate(rows, start):
        key = key_of(row)
        bucket = index.get(key)
        if bucket is None:
            index[key] = [number]
        else:
            bucket.append(number)


class Relation:
    """Rows of term-ids with a dedup/position map and lazy indexes."""

    __slots__ = ("rows", "row_pos", "indexes", "version")

    def __init__(self, rows: Iterable[Row] = ()):
        self.rows: List[Row] = list(rows)
        self.row_pos: Dict[Row, int] = {
            row: number for number, row in enumerate(self.rows)
        }
        #: position tuple → key → row numbers (ascending until a
        #: discard swaps a row down).
        self.indexes: Dict[Tuple[int, ...], Dict[object, List[int]]] = {}
        #: Bumped by every effective mutation (probe-cache invalidation).
        self.version = 0

    def __contains__(self, row: object) -> bool:
        return row in self.row_pos

    def append(self, row: Row) -> bool:
        """Add *row*; True iff it was new."""
        if row in self.row_pos:
            return False
        number = len(self.rows)
        self.rows.append(row)
        self.row_pos[row] = number
        for positions, index in self.indexes.items():
            index.setdefault(_key(row, positions), []).append(number)
        self.version += 1
        return True

    def extend(self, rows: Iterable[Row]) -> List[Row]:
        """Add *rows*, returning exactly the new ones in append order
        (duplicates of stored rows, or within *rows*, are skipped)."""
        row_pos = self.row_pos
        stored = self.rows
        start = len(stored)
        for row in rows:
            if row not in row_pos:
                row_pos[row] = len(stored)
                stored.append(row)
        new = stored[start:]
        if new:
            for positions, index in self.indexes.items():
                _index_rows(index, positions, new, start)
            self.version += 1
        return new

    def discard(self, row: Row) -> bool:
        """Swap-remove *row*, keeping rows dense and indexes coherent."""
        number = self.row_pos.pop(row, None)
        if number is None:
            return False
        last = len(self.rows) - 1
        moved = self.rows.pop()
        if number != last:
            self.rows[number] = moved
            self.row_pos[moved] = number
        for positions, index in self.indexes.items():
            key = _key(row, positions)
            bucket = index[key]
            bucket.remove(number)
            if not bucket:
                del index[key]
            if number != last:
                moved_bucket = index[_key(moved, positions)]
                moved_bucket[moved_bucket.index(last)] = number
        self.version += 1
        return True

    def index_for(self, positions: Tuple[int, ...]) -> Dict[object, List[int]]:
        """The hash index over 0-based *positions*, built on first use."""
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            _index_rows(index, positions, self.rows, 0)
        return index

    def matching(self, bound: Mapping[int, int]) -> List[Row]:
        """Rows whose id at each 0-based position of *bound* (non-empty)
        equals the given id — a snapshot, safe against later mutation.

        Probes the single-column index with the smallest bucket among
        those already built, building one on the first bound position
        when none exists yet.
        """
        built = [p for p in bound if (p,) in self.indexes]
        position = (
            min(built, key=lambda p: len(self.indexes[(p,)].get(bound[p], ())))
            if built
            else min(bound)
        )
        bucket = self.index_for((position,)).get(bound[position], ())
        return [
            row
            for row in map(self.rows.__getitem__, bucket)
            if all(row[p] == tid for p, tid in bound.items())
        ]
