"""Conjunctive queries read in id space on kernel-capable stores.

A CQ ``q(x̄) ← R1(z̄1), ..., Rn(z̄n)`` is a rule whose head is the
answer tuple.  Lowered by :func:`~repro.kernels.compiler.compile_rule`
like any rule, its pin plans run over the store's own id rows through
:meth:`~repro.kernels.runtime.KernelEvaluator.answer_rows` — over one
round's row ranges for the streamed delta read, with every row as
delta for the full read — and the head rows go to an id-space set
instead of into the store.  Only a new answer row is decoded, once,
through the store's term table, into a ``Constant`` tuple; a row
carrying a labelled null is no answer, as in
:meth:`~repro.core.query.ConjunctiveQuery.evaluate`, which stays the
reference.  The reader's batch operations are its own: they never
reach a round's ``kernel_batches``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, List, Set

from ..core.atoms import Atom
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..core.tgd import TGD
from ..storage.relation import Row
from .runtime import KernelEvaluator

__all__ = ["query_answers", "stream_query_answers"]


def _reader(query: ConjunctiveQuery, store) -> KernelEvaluator:
    rule = TGD(
        body=query.atoms,
        head=(Atom(query.head_predicate, query.output),),
    )
    return KernelEvaluator(store, Program((rule,)))


def _decoded(table, rows: Iterable[Row]) -> List[tuple]:
    """The constant tuples of *rows* (rows with a null dropped)."""
    decode = table.decode
    answers = []
    for row in rows:
        answer = decode(row)
        if all(map(isinstance, answer, repeat(Constant))):
            answers.append(answer)
    return answers


def query_answers(query: ConjunctiveQuery, store) -> Set[tuple]:
    """``q(store)`` read off the id rows of a kernel-capable *store*:
    the set :meth:`ConjunctiveQuery.evaluate` computes."""
    return set(_decoded(store.table, _reader(query, store).answer_rows()))


def stream_query_answers(query: ConjunctiveQuery, events) -> Iterator[tuple]:
    """:func:`~repro.core.query.stream_new_answers`' protocol over the
    round events of kernel evaluation, in id space.

    The seed event (``index`` 0) is read in full off ``instance``;
    every later event is delta-read over its ``ranges``, which must
    still be the last rows appended when the event is read — an event
    is read before the next one is pulled.  Each answer is yielded
    exactly once, in ``str`` order within its event.
    """
    reader = None
    seen: Set[Row] = set()
    for event in events:
        if event.index == 0:
            reader = _reader(query, event.instance)
            rows = reader.answer_rows()
        else:
            rows = reader.answer_rows(event.ranges)
        fresh = rows - seen
        if not fresh:
            continue
        seen |= fresh
        yield from sorted(_decoded(reader.table, fresh), key=str)
