"""Conjunctive queries read in id space on kernel-capable stores.

A CQ ``q(x̄) ← R1(z̄1), ..., Rn(z̄n)`` is a rule whose head is the
answer tuple.  Lowered by :func:`~repro.kernels.compiler.compile_rule`
like any rule, its pin plans run over the store's own id rows through
:meth:`~repro.kernels.runtime.KernelEvaluator.answer_rows` — over one
round's row ranges for the streamed delta read, with every row as
delta for the full read — and the head rows go to an id-space set
instead of into the store.  A query that is one atom read in order
(``q(X,Y) :- t(X,Y)``) keeps no set at all: its answers are the stored
rows themselves, distinct by the store's dedup, in a list, and a round's
ranges hold only rows new to their parts, so its stream needs no
memory of the rows it yielded.  A block leaves as id rows: an
:class:`AnswerBlock` of the sorted rows (on ranks of the ids'
spellings, not on a string per row) and the store's term table, so a
stream that caches it keeps ids, and each answer is decoded into a
``Constant`` tuple when it is read — for a one-atom reader the cached
rows are the stored tuples themselves.  A row carrying a labelled null
is no answer, as in
:meth:`~repro.core.query.ConjunctiveQuery.evaluate`, which stays the
reference; it is dropped in id space, one check per distinct id of the
block.  The reader's batch operations are its own: they never
reach a round's ``kernel_batches``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from operator import eq
from typing import Collection, Iterator, List, Optional, Set

from ..core.atoms import Atom
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..core.tgd import TGD
from ..storage.relation import Row
from .runtime import KernelEvaluator

__all__ = [
    "AnswerBlock", "ordered_answers", "query_answers", "stream_query_answers",
]


def _reader(query: ConjunctiveQuery, store) -> KernelEvaluator:
    rule = TGD(
        body=query.atoms,
        head=(Atom(query.head_predicate, query.output),),
    )
    return KernelEvaluator(store, Program((rule,)))


class AnswerBlock(Sequence):
    """One block of answers kept as id rows: the rows and the term
    table that decodes them.  It reads as the list of decoded tuples
    it stands for — ``len``, iteration, indexing and ``==`` against a
    list or a block — decoding each row when it is read; nothing
    decoded is kept.  For a one-atom reader the rows are the store's
    own tuples."""

    __slots__ = ("rows", "table")

    def __init__(self, rows: List[Row], table) -> None:
        self.rows = rows
        self.table = table

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return map(self.table.decode, self.rows)

    def __getitem__(self, at):
        if isinstance(at, slice):
            return list(map(self.table.decode, self.rows[at]))
        return self.table.decode(self.rows[at])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, AnswerBlock)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"AnswerBlock({list(self)!r})"


def _without_nulls(table, rows: Collection[Row], ids: Set[int]):
    """*rows* less those carrying a labelled null, *ids* being their
    distinct ids: one check per id, a row filter only if one is null."""
    nulls = {tid for tid in ids if not isinstance(table.term(tid), Constant)}
    if not nulls:
        return rows
    return [row for row in rows if nulls.isdisjoint(row)]


def _block(table, rows: Collection[Row]) -> AnswerBlock:
    """The constant rows of *rows* in the ``str`` order of their
    decoded tuples, sorted as id rows (a list is sorted in place).  The
    distinct ids are spelled once (``repr``) and ranked by spelling:
    when no spelling is a prefix of another, the first position two
    rows differ at decides their ``str`` order, so the rows are sorted
    on their ranks, one stable sort per position from the last, with
    no key object made per row.  Otherwise on ``str`` of the decoded
    tuple less its ``(``."""
    if not isinstance(rows, list):
        rows = list(rows)
    ids = set(chain.from_iterable(rows))
    rows = _without_nulls(table, rows, ids)
    if len(rows) > 1:
        spelled = sorted(zip(map(repr, map(table.term, ids)), ids))
        if any(
            longer.startswith(shorter)
            for (shorter, _), (longer, _) in zip(spelled, spelled[1:])
        ):
            spell = {tid: spelling for spelling, tid in spelled}.__getitem__
            close = ",)" if len(rows[0]) == 1 else ")"
            rows.sort(key=lambda row: ", ".join(map(spell, row)) + close)
        else:
            rank = {tid: at for at, (_, tid) in enumerate(spelled)}
            # Stable sorts from the last position to the first, each
            # keyed on the rank dict's own ints: no object per row.
            for position in reversed(range(len(rows[0]))):
                rows.sort(key=lambda row, p=position: rank[row[p]])
    return AnswerBlock(rows, table)


def query_answers(query: ConjunctiveQuery, store) -> Set[tuple]:
    """``q(store)`` read off the id rows of a kernel-capable *store*:
    the set :meth:`ConjunctiveQuery.evaluate` computes."""
    table = store.table
    rows = _reader(query, store).answer_rows()
    ids = set(chain.from_iterable(rows))
    return set(map(table.decode, _without_nulls(table, rows, ids)))


def ordered_answers(query: ConjunctiveQuery, store) -> AnswerBlock:
    """:func:`query_answers` as one block, in ``str`` order."""
    return _block(store.table, _reader(query, store).answer_rows())


def stream_query_answers(
    query: ConjunctiveQuery, events
) -> Iterator[AnswerBlock]:
    """:func:`~repro.core.query.stream_new_answers`' protocol over the
    round events of kernel evaluation, in id space.

    The seed event (``index`` 0) is read in full off ``instance``;
    every later event is delta-read over its ``ranges``, which must
    still be the last rows appended when the event is read — an event
    is read before the next one is pulled.  Each answer is yielded
    once, in its event's block: an :class:`AnswerBlock` in ``str``
    order.
    """
    reader = None
    seen: Optional[Set[Row]] = None
    for event in events:
        if event.index == 0:
            reader = _reader(query, event.instance)
            # Stored rows are distinct, and a round's ranges hold only
            # rows new to their parts: such a reader needs no memory.
            seen = None if reader.reads_rows else set()
        fresh = reader.answer_rows(event.ranges if event.index else None)
        if seen is not None:
            fresh -= seen
            seen |= fresh
        block = _block(reader.table, fresh)
        if block:
            yield block
