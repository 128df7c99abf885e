"""Batch execution of compiled rule kernels over the store's own rows.

A :class:`KernelEvaluator` holds no relation of its own: it joins the
:class:`~repro.storage.relation.Relation` objects of a kernel-capable
store (:attr:`~repro.core.store.FactStore.kernel_capable`) in place.
The store hands a relation out as a sequence of resident *parts*, one
at a time (``store.parts`` — each non-empty shard of the id-array
store, one per relation on ``"columnar"``, paged in through its
LRU/budget path), and the evaluator

* probes each part through the part's own lazily built hash indexes
  (built on first probe, kept coherent by the relation's appends, and
  dropped with a shard when it is evicted) — except that a step whose
  key covers every position is a lookup in the part's dedup map
  (``members``), which every part keeps anyway, and builds no index:
  the map holds no row number, so a found row is visible unless it is
  among the part's rows at or above the step's watermark (a set of
  them is made per part only when there are any); and that a part with
  no row visible to the step is skipped before any index is built (an
  index built there would be kept up by every later append for a probe
  that found nothing);
* keeps the semi-naive delta as one append watermark per part: rows
  are numbered in append order, so the rows staged by the previous
  round are exactly ``[lo, hi)`` and "old" means ``number < lo``
  (round 1: ``lo = 0``, every stored row is delta);
* appends each pin's head rows through ``store.extend_rows``, which
  deduplicates once and reports the rows that were new and where they
  start.  Rows appended during a round sit at or above the part's
  ``hi`` and stay invisible to that round's joins, so the round still
  evaluates against its start-of-round snapshot.

Each semi-naive round runs every rule's pin plans as batch operations
(``kernel_batches`` counts them — one per pin filter, step or negated
literal, however many parts it walks).  Every pin runs one way, on
rows (:meth:`KernelEvaluator._matches`): its filtered delta rows go
through one batch per join step — a membership test, a hash probe or a
scan (:meth:`KernelEvaluator._step`) — each match leaving as the row so
far with the matched row appended; a negated literal drops the matches
whose laid-out row its relation holds; the head is laid out over the
match row.  The last step builds head rows straight from (row, matched
row, head constants), and a head that *is* the pinned or the matched
row is that stored tuple, so the head relation shares the body
relation's tuples (``mutual(X,Y) :- t(X,Y), t(Y,X)`` shares ``t``'s).
The old/full row discipline per step reproduces the interpreter's
first-pin exact-once match counting — see :mod:`repro.kernels.compiler`
— so ``considered``, staged facts, and round structure agree with the
interpreter exactly.

A round reports what it staged as row ranges, not atoms: per part it
appended to, the ``[lo, hi)`` its appends occupy (:data:`RowRange`).
:func:`decode_ranges` turns them into atoms for a consumer that wants
them; :mod:`repro.kernels.query` reads a query's answers off them in
id space.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, itemgetter
from typing import (
    Callable, Collection, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from ..core.atoms import Atom
from ..core.program import Program
from ..core.terms import Term
from ..storage.relation import Row
from .compiler import (
    CONST,
    MATCHED,
    PINNED,
    JoinStep,
    KernelProgram,
    PinPlan,
    compile_kernels,
)

__all__ = ["KernelEvaluator", "RowRange", "decode_ranges"]

RelKey = Tuple[str, int]

#: ``(predicate, arity, part id, lo, hi)``: the rows ``[lo, hi)`` of
#: one part of one relation — where one round's appends to it sit.
RowRange = Tuple[str, int, int, int, int]

#: relation → part id → a row number in that part: where the rows a
#: round appended start.
Watermarks = Dict[RelKey, Dict[int, int]]

_NO_PARTS: Mapping[int, int] = {}

#: Per position of a row: ``(True, id)`` for a resolved constant,
#: ``(False, position)`` for a position of a match row.
Sources = Sequence[Tuple[bool, int]]


def _pick(positions: Sequence[int]) -> Callable[[Row], Row]:
    """row → the id tuple of *positions*, in one C-level call (a slice
    for one position, so the result is still a tuple)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


def _row_of(sources: Sources) -> Callable[[Row], Row]:
    """match row → the id tuple laid out by *sources*; a layout with no
    constant projects through one C-level call."""
    if not any(is_const for is_const, _ in sources):
        return _pick([position for _, position in sources])

    def row_of(row, _sources=tuple(sources)):
        return tuple(
            payload if is_const else row[payload]
            for is_const, payload in _sources
        )

    return row_of


def _key_of(sources: Sources, whole: bool) -> Callable[[Row], object]:
    """match row → the probe key *sources* lay out: an id tuple for a
    *whole* row (looked up in a part's dedup map) or a composite index
    key; the bare id for a single-column index."""
    if whole or len(sources) > 1:
        return _row_of(sources)
    ((is_const, payload),) = sources
    return (lambda row, _k=payload: _k) if is_const else itemgetter(payload)


def _layout(pin: PinPlan) -> Tuple[Callable[[Row], Row], Tuple[Term, ...]]:
    """*pin*'s head laid out over ``match row + head constants``: the
    projection, and the head's constant terms in order."""
    width = pin.arity + sum(step.arity for step in pin.steps)
    terms: List[Term] = []
    positions = []
    for kind, payload in pin.head:
        if kind == CONST:
            positions.append(width + len(terms))
            terms.append(payload)
        else:
            positions.append(payload)
    return _pick(positions), tuple(terms)


def decode_ranges(store, ranges: Iterable[RowRange]) -> Tuple[Atom, ...]:
    """The atoms of the rows *ranges* name, decoded through the store's
    term table, part by part.  Valid while those rows are where the
    round put them: appends keep them in place, a ``discard`` may swap
    a row away."""
    decode = store.table.decode
    atoms: List[Atom] = []
    for predicate, arity, part_id, lo, hi in ranges:
        for _, part in store.parts(predicate, arity, (part_id,)):
            atoms.extend(
                Atom(predicate, decode(row)) for row in part.rows[lo:hi]
            )
    return tuple(atoms)


class KernelEvaluator:
    """Semi-naive evaluation of one program as compiled batch kernels.

    The evaluator keeps per-part watermarks and each pin's transient
    match rows, no relation: relations are read from, and head rows
    appended to, the *store*, which is therefore exactly what the
    interpreter would have written at every round boundary (round
    events, fixpoint caches and IVM observe it there).  The store must
    not be mutated externally while an evaluation is live.
    """

    def __init__(self, store, program: Program,
                 kernels: Optional[KernelProgram] = None):
        if not store.kernel_capable:
            raise ValueError(
                f"{type(store).__name__} has no interned id-array "
                "surface; use the interpreter"
            )
        self.store = store
        self.table = store.table
        self.kernels = (
            kernels if kernels is not None else compile_kernels(program)
        )
        #: Cumulative batch operations (pin filters, join steps, negated
        #: literals).
        self.batches = 0
        #: Where the previous round's appends start, per part — the
        #: ``lo`` of this round's delta; None in round 1, when every
        #: stored row is delta.
        self._delta: Optional[Watermarks] = None
        #: Where this round's own appends start, per part — the ``hi``
        #: this round's joins must stay below (a part absent here has
        #: not grown: its ``hi`` is its length).
        self._grown: Watermarks = {}
        #: Rule-constant ids, cached once resolved (an id is permanent;
        #: an unresolved constant is retried — a head fire may intern it
        #: between rounds).
        self._const_ids: Dict[Term, int] = {}

    # -- the round loop ----------------------------------------------------

    def rounds(
        self, max_rounds: Optional[int] = None
    ) -> Iterator[Tuple[int, Tuple[RowRange, ...], int, int]]:
        """Run semi-naive rounds to fixpoint from the stored rows,
        yielding ``(index, ranges, considered, batches)`` per round.

        *ranges* name, per part the round appended to, the ``[lo, hi)``
        its new rows occupy — the round's staged facts, in the store
        before the yield (the event's instance view is post-merge, as
        in the interpreter), and still there while later rounds append
        above them.  The join indexes built on the store's parts along
        the way are released when the generator exits.
        """
        self._delta = None
        pending = len(self.store) > 0
        index = 0
        try:
            while pending and (max_rounds is None or index < max_rounds):
                index += 1
                before = self.batches
                self._grown = {}
                ranges, considered = self._run_round()
                self._delta = self._grown
                pending = bool(ranges)
                yield index, ranges, considered, self.batches - before
        finally:
            self.store.release_indexes()

    def _run_round(self) -> Tuple[Tuple[RowRange, ...], int]:
        """One round over every rule: the row ranges staged, and the
        body matches considered."""
        considered = 0
        ends: Dict[Tuple[RelKey, int], int] = {}
        for kernel in self.kernels.kernels:
            head_key = (kernel.head_predicate, kernel.head_arity)
            for matched, heads in self._matches(kernel.pins):
                considered += matched
                for part_id, start, new in self.store.extend_rows(
                    *head_key, heads
                ):
                    # The first append of the round marks where the
                    # part's start-of-round rows end.
                    self._grown.setdefault(head_key, {}).setdefault(
                        part_id, start
                    )
                    ends[head_key, part_id] = start + len(new)
        ranges = tuple(
            (*key, part_id, lo, ends[key, part_id])
            for key, starts in self._grown.items()
            for part_id, lo in starts.items()
        )
        return ranges, considered

    @property
    def reads_rows(self) -> bool:
        """True iff the program is one rule whose one pin keeps rows (a
        single atom whose head is its stored row): its
        :meth:`answer_rows` are stored rows, distinct by the store's
        dedup, in a list."""
        kernels = self.kernels.kernels
        return (
            len(kernels) == 1 and len(kernels[0].pins) == 1
            and kernels[0].pins[0].keeps_rows
        )

    def answer_rows(
        self, ranges: Optional[Iterable[RowRange]] = None
    ) -> Collection[Row]:
        """The distinct head rows of every body match that uses a row of
        *ranges* (every match when None), collected instead of
        appended — how :mod:`repro.kernels.query` reads a CQ lowered to
        a rule.  A set, or — when :attr:`reads_rows` — the stored rows
        themselves in a fresh list (the caller's to sort).  Reads the
        store as it stands, so *ranges* must be the last rows appended
        to their parts."""
        self._grown = {}
        self._delta = None
        if ranges is not None:
            self._delta = {}
            for predicate, arity, part_id, lo, _ in ranges:
                self._delta.setdefault((predicate, arity), {})[part_id] = lo
        if self.reads_rows:
            return self._pin_rows(self.kernels.kernels[0].pins[0]) or []
        rows: Set[Row] = set()
        for kernel in self.kernels.kernels:
            # With every row delta, pin 0 sees every match: the
            # old-only steps of each later pin see none.
            pins = kernel.pins if ranges is not None else kernel.pins[:1]
            for _, heads in self._matches(pins):
                rows.update(heads)
        return rows

    def _matches(
        self, pins: Iterable[PinPlan]
    ) -> Iterator[Tuple[int, Iterable[Row]]]:
        """Per pin of *pins* with a body match: how many matches, and
        their head rows.  Lazy: a caller that appends a pin's heads
        does so before the next pin runs.  The pinned rows go through
        one :meth:`_step` per join step, the negated literals' filter
        and the head layout; a pin with no step is the same loop with
        none."""
        for pin in pins:
            rows = self._pin_rows(pin)
            if not rows:
                continue
            steps = pin.steps
            layout, terms = _layout(pin)
            consts = tuple(map(self._const_id, terms))
            # The last step lays its head rows out as it matches —
            # unless a negated literal tests the whole match row first,
            # or a head constant is not interned yet: that happens on
            # the rule's first fire (earlier would intern constants of
            # rules that never fire, which the interpreter never does),
            # so until then the rows are laid out once they are final.
            late = bool(pin.negated) or None in consts
            for at, step in enumerate(steps, 1):
                out = None if late or at < len(steps) else (
                    pin.shares or layout
                )
                rows = self._step(step, rows, out, consts)
                if not rows:
                    break
            if rows and pin.negated:
                rows = self._unblocked(pin, rows)
            if not rows:
                continue
            if (not late) if steps else pin.shares == PINNED:
                # The last step laid them out, or the pinned rows are
                # the head rows as stored.
                yield len(rows), rows
                continue
            if None in consts:
                consts = tuple(map(self.table.intern, terms))
            yield len(rows), map(
                layout, map(add, rows, repeat(consts)) if consts else rows
            )

    def _pin_rows(self, pin: PinPlan) -> Optional[List[Row]]:
        """The pinned atom's delta rows that carry its constants and
        repeats (None, and no batch counted, when the relation has no
        delta)."""
        key = (pin.predicate, pin.arity)
        # Only parts the previous round appended to carry delta rows;
        # in round 1 every part does, from row 0.
        starts = None
        if self._delta is not None:
            starts = self._delta.get(key)
            if not starts:
                return None
        grown = self._grown.get(key, _NO_PARTS)
        consts = [
            (position, self._const_id(term)) for position, term in pin.consts
        ]
        # A constant never interned is carried by no stored row: the
        # pin matches nothing this round.
        unmatchable = any(cid is None for _, cid in consts)
        repeats = pin.repeats
        selected: Optional[List[Row]] = None
        for part_id, part in self.store.parts(*key, starts):
            rows = part.rows
            lo = 0 if starts is None else starts[part_id]
            hi = grown.get(part_id, len(rows))
            if lo == hi:
                continue  # an empty part this round's appends created
            if selected is None:
                self.batches += 1
                selected = []
            if unmatchable:
                break
            batch = rows[lo:hi]
            if consts or repeats:
                batch = [
                    row for row in batch
                    if all(row[p] == cid for p, cid in consts)
                    and all(row[p] == row[q] for p, q in repeats)
                ]
            if selected:
                selected.extend(batch)
            else:
                selected = batch
        return selected

    def _step(
        self, step: JoinStep, rows: List[Row], out, consts: Tuple[int, ...]
    ) -> List[Row]:
        """The matches of *rows* through one body atom (one batch op),
        part by part, as *out* lays each out from (row, matched row):
        :data:`PINNED` / :data:`MATCHED` for that row as stored, None
        for ``row + matched row``, or a projection of ``row + matched
        row + consts``.  Each kind of step loops on its own: a member
        step looks the key up in the part's dedup map, which returns the
        stored row; a keyed step walks the row numbers of an index
        bucket; a scan step takes every visible row.  Only rows below
        the part's watermark are visible — numbered below it in a
        bucket or a scan, and, for a member step, not among the rows
        stored at or above it."""
        self.batches += 1
        old_only = step.old_only
        if old_only and self._delta is None:
            return []  # round 1: every stored row is delta, none is old
        sources = self._sources(cell for _, cell in step.key)
        if sources is None:
            return []  # a key constant no stored row carries
        member = step.member
        key_of = _key_of(sources, member) if sources or member else None
        positions = tuple(p for p, _ in step.key)
        key = (step.predicate, step.arity)
        grown = self._grown.get(key, _NO_PARTS)
        starts = self._delta.get(key, _NO_PARTS) if old_only else _NO_PARTS
        repeats = step.repeats
        matches: List[Row] = []
        for part_id, part in self.store.parts(*key):
            stored = part.rows
            # Visible rows end where this round's appends start; old
            # rows end where the previous round's did.
            limit = grown.get(part_id, len(stored))
            if old_only:
                limit = starts.get(part_id, limit)
            if not limit:
                continue  # no visible row: no index to build or probe
            if member:
                # The stored row, or None when the part lacks it; the
                # step has no repeats.  An empty key (a nullary atom)
                # looks up ``()``.  A row at or above ``limit`` is not
                # visible: those rows, when there are any, are the
                # relation's gain of the last two rounds at most.
                hidden = set(stored[limit:]) if limit < len(stored) else ()
                found = map(part.members.get, map(key_of, rows))
                for row, match in zip(rows, found):
                    if match is not None and match not in hidden:
                        matches.append(
                            row if out is PINNED
                            else match if out is MATCHED
                            else row + match if out is None
                            else out(row + match + consts)
                        )
            elif key_of is not None:
                buckets = map(
                    part.index_for(positions).get, map(key_of, rows)
                )
                bounded = limit < len(stored)
                for row, bucket in zip(rows, buckets):
                    if not bucket:
                        continue
                    for number in bucket:
                        if bounded and number >= limit:
                            continue
                        match = stored[number]
                        if repeats and not all(
                            match[p] == match[q] for p, q in repeats
                        ):
                            continue
                        matches.append(
                            row if out is PINNED
                            else match if out is MATCHED
                            else row + match if out is None
                            else out(row + match + consts)
                        )
            else:
                # No determined position: a scan step (cartesian
                # extension).
                matching = [
                    match for match in stored[:limit]
                    if not repeats
                    or all(match[p] == match[q] for p, q in repeats)
                ]
                for row in rows:
                    for match in matching:
                        matches.append(
                            row if out is PINNED
                            else match if out is MATCHED
                            else row + match if out is None
                            else out(row + match + consts)
                        )
        return matches

    def _unblocked(self, pin: PinPlan, rows: List[Row]) -> List[Row]:
        """The match *rows* no negated literal of *pin* blocks: the
        literal's id row, laid out over the match row, is in no part of
        its relation (one batch op per literal).  A constant never
        interned is carried by no stored row, so its literal passes."""
        for predicate, arity, cells in pin.negated:
            sources = self._sources(cells)
            if sources is None:
                continue
            self.batches += 1
            row_of = _row_of(sources)
            for _, part in self.store.parts(predicate, arity):
                rows = [row for row in rows if row_of(row) not in part]
        return rows

    # -- helpers -----------------------------------------------------------

    def _const_id(self, term: Term) -> Optional[int]:
        cid = self._const_ids.get(term)
        if cid is None:
            cid = self.table.id_of(term)
            if cid is not None:
                self._const_ids[term] = cid
        return cid

    def _sources(self, cells) -> Optional[List[Tuple[bool, int]]]:
        """*cells* (``(ROW, position)`` / ``(CONST, term)``) as
        :data:`Sources`; None if a constant has no id yet."""
        sources = []
        for kind, payload in cells:
            if kind == CONST:
                payload = self._const_id(payload)
                if payload is None:
                    return None
            sources.append((kind == CONST, payload))
        return sources
