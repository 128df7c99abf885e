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
* ``members`` maps each stored row to itself: the dedup set, and the
  index of every probe that binds all positions (a membership test
  builds no hash index) — a lookup hands back the stored tuple, so a
  relation built from another's rows shares them.  It keeps no row
  number: nothing beyond its tuple is stored per row.  ``discard``
  finds a row's number in the smallest bucket of an index.
* ``indexes`` are built lazily per probed position *tuple* and kept
  coherent by every mutation.  Single-column indexes key on the bare
  id (no tuple allocation per probe); composite ones on id tuples.
"""

from __future__ import annotations

from operator import indexOf, itemgetter
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
    """Rows of term-ids with a dedup map and lazy indexes."""

    __slots__ = ("rows", "members", "indexes")

    def __init__(self, rows: Iterable[Row] = ()):
        self.rows: List[Row] = list(rows)
        self.members: Dict[Row, Row] = dict(zip(self.rows, self.rows))
        #: position tuple → key → row numbers (ascending until a
        #: discard swaps a row down).
        self.indexes: Dict[Tuple[int, ...], Dict[object, List[int]]] = {}

    def __contains__(self, row: object) -> bool:
        return row in self.members

    def append(self, row: Row) -> bool:
        """Add *row*; True iff it was new."""
        if row in self.members:
            return False
        number = len(self.rows)
        self.rows.append(row)
        self.members[row] = row
        for positions, index in self.indexes.items():
            index.setdefault(_key(row, positions), []).append(number)
        return True

    def extend(self, rows: Iterable[Row]) -> List[Row]:
        """Add *rows*, returning exactly the new ones in append order
        (duplicates of stored rows, or within *rows*, are skipped)."""
        members = self.members
        stored = self.rows
        start = len(stored)
        for row in rows:
            if row not in members:
                members[row] = row
                stored.append(row)
        new = stored[start:]
        if new:
            for positions, index in self.indexes.items():
                _index_rows(index, positions, new, start)
        return new

    def discard(self, row: Row) -> bool:
        """Swap-remove *row*, keeping rows dense and indexes coherent.
        Its number is found in the smallest of its buckets in the built
        indexes (one is built on the first position when none is)."""
        member = self.members.pop(row, None)
        if member is None:
            return False
        stored = self.rows
        if row and not self.indexes:
            self.index_for((0,))
        keyed = [
            (positions, index, _key(row, positions))
            for positions, index in self.indexes.items()
        ]
        number = 0  # the one row a nullary relation can hold
        if keyed:
            bucket = min((index[key] for _, index, key in keyed), key=len)
            number = bucket[indexOf(map(stored.__getitem__, bucket), member)]
        last = len(stored) - 1
        moved = stored.pop()
        if number != last:
            stored[number] = moved
        for positions, index, key in keyed:
            bucket = index[key]
            bucket.remove(number)
            if not bucket:
                del index[key]
            if number != last:
                moved_bucket = index[_key(moved, positions)]
                moved_bucket[moved_bucket.index(last)] = number
        return True

    def index_for(self, positions: Tuple[int, ...]) -> Dict[object, List[int]]:
        """The hash index over 0-based *positions*, built on first use."""
        index = self.indexes.get(positions)
        if index is None:
            # Published only once complete: a reader racing the build
            # on a frozen store sees no index or a whole one.
            index = {}
            _index_rows(index, positions, self.rows, 0)
            self.indexes[positions] = index
        return index

    def _bucket(self, bound: Mapping[int, int]) -> List[int]:
        """The row numbers of one single-column bucket every match of
        *bound* (non-empty) lies in: the smallest among the indexes
        already built on its positions, one being built on the first
        bound position when none exists yet."""
        if len(bound) == 1:
            ((position, tid),) = bound.items()
            return self.index_for((position,)).get(tid, ())
        built = [p for p in bound if (p,) in self.indexes]
        position = (
            min(built, key=lambda p: len(self.indexes[(p,)].get(bound[p], ())))
            if built
            else min(bound)
        )
        return self.index_for((position,)).get(bound[position], ())

    def matching(self, bound: Mapping[int, int]) -> List[Row]:
        """Rows whose id at each 0-based position of *bound* (non-empty)
        equals the given id — a snapshot, safe against later mutation.

        A *bound* that covers every position is one ``members`` lookup
        and builds no index.  Otherwise one single-column bucket is
        probed (:meth:`_bucket`); with one bound position every row of
        the bucket matches.
        """
        rows = self.rows
        if rows and len(bound) == len(rows[0]):
            row = tuple(bound[p] for p in range(len(bound)))
            return [row] if row in self.members else []
        bucket = self._bucket(bound)
        if len(bound) == 1:
            return list(map(rows.__getitem__, bucket))
        return [
            row
            for row in map(rows.__getitem__, bucket)
            if all(row[p] == tid for p, tid in bound.items())
        ]

    def has_match(
        self, bound: Mapping[int, int], agree: Iterable[Tuple[int, int]] = ()
    ) -> bool:
        """Whether some row holds *bound*'s id at each of its positions
        (*bound* may be empty) and equal ids at both positions of each
        pair of *agree* (positions *bound* leaves free) — the same probe
        as :meth:`matching`, stopped at the first such row, with nothing
        copied."""
        rows = self.rows
        if not rows:
            return False
        if len(bound) == len(rows[0]):
            return tuple(bound[p] for p in range(len(bound))) in self.members
        if not bound:
            candidates = rows
        else:
            bucket = self._bucket(bound)
            if len(bound) == 1 and not agree:
                return bool(bucket)
            candidates = map(rows.__getitem__, bucket)
        for row in candidates:
            if all(row[p] == tid for p, tid in bound.items()) and all(
                row[at] == row[earlier] for at, earlier in agree
            ):
                return True
        return False
