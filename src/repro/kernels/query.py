"""Conjunctive queries read in id space on kernel-capable stores.

A CQ ``q(x̄) ← R1(z̄1), ..., Rn(z̄n)`` is a rule whose head is the
answer tuple.  Lowered by :func:`~repro.kernels.compiler.compile_rule`
like any rule, its pin plans run over the store's own id rows through
:meth:`~repro.kernels.runtime.KernelEvaluator.answer_rows` — over one
round's row ranges for the streamed delta read, with every row as
delta for the full read — and the head rows go to an id-space set
instead of into the store (a single-atom query's are the stored rows,
projected).  Only a new answer row is decoded, once, through the
store's term table, into a ``Constant`` tuple, after its block is
sorted; a row carrying a labelled null is no answer, as in
:meth:`~repro.core.query.ConjunctiveQuery.evaluate`, which stays the
reference.  The reader's batch operations are its own: they never
reach a round's ``kernel_batches``.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, List, Set

from ..core.atoms import Atom
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..core.tgd import TGD
from ..storage.relation import Row
from .runtime import KernelEvaluator

__all__ = ["ordered_answers", "query_answers", "stream_query_answers"]


def _reader(query: ConjunctiveQuery, store) -> KernelEvaluator:
    rule = TGD(
        body=query.atoms,
        head=(Atom(query.head_predicate, query.output),),
    )
    return KernelEvaluator(store, Program((rule,)))


def _decoded(table, rows: Iterable[Row]) -> List[tuple]:
    """The constant tuples of *rows* (rows with a null dropped)."""
    return [
        answer for answer in map(table.decode, rows)
        if all(map(isinstance, answer, repeat(Constant)))
    ]


def _block(table, rows: Set[Row]) -> List[tuple]:
    """:func:`_decoded` in ``str`` order, sorted as id rows: keyed on ``str``
    of the decoded tuple less its ``(``, from one ``repr`` per distinct id."""
    ids = set(chain.from_iterable(rows))
    spell = dict(zip(ids, map(repr, map(table.term, ids)))).__getitem__
    close = ",)" if len(next(iter(rows), ())) == 1 else ")"
    return _decoded(table, sorted(
        rows, key=lambda row: ", ".join(map(spell, row)) + close
    ))


def query_answers(query: ConjunctiveQuery, store) -> Set[tuple]:
    """``q(store)`` read off the id rows of a kernel-capable *store*:
    the set :meth:`ConjunctiveQuery.evaluate` computes."""
    return set(_decoded(store.table, _reader(query, store).answer_rows()))


def ordered_answers(query: ConjunctiveQuery, store) -> List[tuple]:
    """:func:`query_answers` as one block, in ``str`` order."""
    return _block(store.table, _reader(query, store).answer_rows())


def stream_query_answers(query: ConjunctiveQuery, events) -> Iterator[list]:
    """:func:`~repro.core.query.stream_new_answers`' protocol over the
    round events of kernel evaluation, in id space.

    The seed event (``index`` 0) is read in full off ``instance``;
    every later event is delta-read over its ``ranges``, which must
    still be the last rows appended when the event is read — an event
    is read before the next one is pulled.  Each answer is yielded
    once, in its event's block: a list in ``str`` order.
    """
    reader = None
    seen: Set[Row] = set()
    for event in events:
        if event.index == 0:
            reader = _reader(query, event.instance)
        fresh = reader.answer_rows(event.ranges if event.index else None) - seen
        seen |= fresh
        block = _block(reader.table, fresh)
        if block:
            yield block
