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
  (``row_pos``), which every part keeps anyway, and builds no index,
  and that a part with no row visible to the step is skipped before
  any index is built (an index built there would be kept up by every
  later append for a probe that found nothing);
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
literal, however many parts it walks).  Most pins run on rows:

* a pin with nothing to join or test (``PinPlan.project``) maps its
  filtered delta rows straight to head rows, or they are the head rows;
* a pin with exactly one keyed step — a hash probe or a membership
  test — and no negated literal (:meth:`KernelEvaluator._join`: both
  pins of ``t(X,Z) :- e(X,Y), t(Y,Z)`` and of ``mutual(X,Y) :-
  t(X,Y), t(Y,X)``) builds each head row from (pinned row, matched
  row) through a projection compiled once per pin, in C-level calls;
  when the head *is* the pinned or the matched row, it is that stored
  tuple, so the head relation shares the body relation's tuples.

Any other pin — two or more steps, a scan step (empty key), a negated
literal — filters its delta rows into a frontier of binding lists,
extends the frontier through each step with one hash probe (or
membership test or scan) per step, drops the bindings a negated literal
blocks with one membership test per binding, and projects the rest to
head rows.  The old/full row discipline per step reproduces the
interpreter's first-pin exact-once match counting — see
:mod:`repro.kernels.compiler` — so ``considered``, staged facts, and
round structure agree with the interpreter exactly.

A round reports what it staged as row ranges, not atoms: per part it
appended to, the ``[lo, hi)`` its appends occupy (:data:`RowRange`).
:func:`decode_ranges` turns them into atoms for a consumer that wants
them; :mod:`repro.kernels.query` reads a query's answers off them in
id space.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
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
    SLOT,
    KernelProgram,
    PinPlan,
    RuleKernel,
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
#: ``(False, index)`` for a binding slot or a position of a stored row.
Sources = Sequence[Tuple[bool, int]]


def _row_of(sources: Sources) -> Callable[[Sequence[int]], Row]:
    """binding (or row) → the id tuple laid out by *sources*; all-slot
    layouts project through one C-level call."""
    if all(not is_const for is_const, _ in sources):
        slots = [payload for _, payload in sources]
        if not slots:
            return lambda binding: ()
        if len(slots) == 1:
            return lambda binding, _s=slots[0]: (binding[_s],)
        return itemgetter(*slots)

    def row_of(binding, _sources=tuple(sources)):
        return tuple(
            payload if is_const else binding[payload]
            for is_const, payload in _sources
        )

    return row_of


def _key_of(sources: Sources, whole: bool) -> Callable[[Sequence[int]], object]:
    """binding (or row) → the probe key *sources* lay out: an id tuple
    for a *whole* row (looked up in a part's dedup map) or a composite
    index key; the bare id for a single-column index."""
    if whole or len(sources) > 1:
        return _row_of(sources)
    ((is_const, payload),) = sources
    return (lambda binding, _k=payload: _k) if is_const else itemgetter(payload)


def _pick(positions: Sequence[int]) -> Callable[[Row], Row]:
    """row → the id tuple of *positions*, in one C-level call (a slice
    for one position, so the result is still a tuple)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


#: row → the row itself (``row[:]``), in one C-level call.
_WHOLE = itemgetter(slice(None))

#: A row join's head is the pinned row / the matched row, as stored.
_PINNED = object()
_MATCHED = object()


def _cells(arity: int, fixed, binds, repeats) -> Tuple[Tuple[str, object], ...]:
    """A body atom laid out like a head template: per position the cell
    (``(SLOT, slot)`` or ``(CONST, term)``) its value is, given its
    *fixed* ``(position, cell)`` pairs, *binds* and *repeats*."""
    cells: List[Tuple[str, object]] = [(CONST, None)] * arity
    for position, cell in fixed:
        cells[position] = cell
    for position, slot in binds:
        cells[position] = (SLOT, slot)
    for position, earlier in repeats:
        cells[position] = cells[earlier]
    return tuple(cells)


def _on_rows(kernel: RuleKernel, pin: PinPlan) -> bool:
    """True iff *pin* runs on rows (:meth:`KernelEvaluator._join`): one
    keyed probe or membership step, and no negated literal to test."""
    return (
        len(pin.steps) == 1 and bool(pin.steps[0].key) and not kernel.negated
    )


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
    frontier, no relation: relations are read from, and head rows
    appended to, the *store*, which is therefore exactly what the interpreter would have
    written at every round boundary (round events, fixpoint caches and
    IVM observe it there).  The store must not be mutated externally
    while an evaluation is live.
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
        #: Cumulative batch operations (pin filters, probes, membership
        #: tests).
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
        #: kernel or projecting pin → its head-row projection
        #: (:meth:`_head_row`); ``(kernel, pin index)`` → a row-join
        #: pin's plan (:meth:`_join_plan`).
        self._head_rows: Dict[object, object] = {}

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
            for matched, heads in self._matches(kernel, kernel.pins):
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
        single atom with no constant or repeat, read in order): its
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
            for _, heads in self._matches(kernel, pins):
                rows.update(heads)
        return rows

    def _matches(
        self, kernel: RuleKernel, pins: Iterable[PinPlan]
    ) -> Iterator[Tuple[int, Iterable[Row]]]:
        """Per pin of *pins* with a body match: how many matches, and
        their head rows.  Lazy: a caller that appends a pin's heads
        does so before the next pin runs.  A projecting pin's rows go
        straight to head rows, a pin with one keyed step joins rows
        (:meth:`_join`); any other pin's go through bindings."""
        for pin in pins:
            if pin.project is not None:
                rows = self._pin_rows(pin)
                if rows:
                    yield len(rows), (
                        rows if pin.keeps_rows
                        else map(self._head_row(pin, pin.project), rows)
                    )
                continue
            if _on_rows(kernel, pin):
                rows = self._pin_rows(pin)
                heads = self._join(kernel, pin, rows) if rows else None
                if heads:
                    yield len(heads), heads
                continue
            frontier = self._pin_frontier(kernel, pin)
            for step in pin.steps:
                if not frontier:
                    break
                frontier = self._probe(step, frontier)
            if frontier and kernel.negated:
                frontier = self._unblocked(kernel, frontier)
            if frontier:
                yield len(frontier), map(
                    self._head_row(kernel, kernel.head), frontier
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

    def _join(
        self, kernel: RuleKernel, pin: PinPlan, pinned: List[Row]
    ) -> List[Row]:
        """The head rows of the matches of the *pinned* rows through
        *pin*'s one keyed step (one batch op), one per match, built
        straight from (pinned row, matched row) — no binding.  A head
        that is one of the two rows is that stored tuple itself."""
        self.batches += 1
        (step,) = pin.steps
        old_only = step.old_only
        if old_only and self._delta is None:
            return []  # round 1: every stored row is delta, none is old
        key_cells, pick, terms = self._join_plan(kernel, pin)
        sources = self._sources(key_cells)
        if sources is None:
            return []  # a key constant no stored row carries
        key_of = _key_of(sources, step.member)
        consts = tuple(map(self._const_id, terms))
        # Head constants are interned on the rule's first fire (as in
        # :meth:`_head_row`): until then the head rows wait as bare
        # ``pinned + matched`` rows, laid out once the join has matched.
        unfired = None in consts
        if unfired:
            pick, laid_out, consts = _WHOLE, pick, ()
        positions = tuple(p for p, _ in step.key)
        key = (step.predicate, step.arity)
        grown = self._grown.get(key, _NO_PARTS)
        starts = self._delta.get(key, _NO_PARTS) if old_only else _NO_PARTS
        repeats = step.repeats
        out: List[Row] = []
        for part_id, part in self.store.parts(*key):
            rows = part.rows
            limit = grown.get(part_id, len(rows))
            if old_only:
                limit = starts.get(part_id, limit)
            if not limit:
                continue  # no visible row: no index to build or probe
            if step.member:
                # The matched row's number, or ``limit`` (not visible)
                # when the part lacks it; the step has no repeats.
                numbers = map(
                    part.row_pos.get, map(key_of, pinned), repeat(limit)
                )
                for row, number in zip(pinned, numbers):
                    if number < limit:
                        match = rows[number]
                        out.append(
                            row if pick is _PINNED
                            else match if pick is _MATCHED
                            else pick(row + match + consts)
                        )
                continue
            buckets = map(part.index_for(positions).get, map(key_of, pinned))
            bounded = limit < len(rows)
            for row, bucket in zip(pinned, buckets):
                if not bucket:
                    continue
                for number in bucket:
                    if bounded and number >= limit:
                        continue
                    match = rows[number]
                    if repeats and not all(
                        match[p] == match[q] for p, q in repeats
                    ):
                        continue
                    out.append(
                        row if pick is _PINNED
                        else match if pick is _MATCHED
                        else pick(row + match + consts)
                    )
        if unfired and out:
            consts = tuple(map(self.table.intern, terms))
            out = [laid_out(row + consts) for row in out]
        return out

    def _pin_frontier(
        self, kernel: RuleKernel, pin: PinPlan
    ) -> Optional[List[List[int]]]:
        """The pinned atom's delta rows as bindings (None when the
        relation has no delta)."""
        rows = self._pin_rows(pin)
        if rows is None:
            return None
        num_slots = kernel.num_slots
        frontier: List[List[int]] = []
        for row in rows:
            binding = [0] * num_slots
            for position, slot in pin.binds:
                binding[slot] = row[position]
            frontier.append(binding)
        return frontier

    def _probe(
        self, step, frontier: List[List[int]]
    ) -> List[List[int]]:
        """Extend the frontier through one body atom (one batch op),
        part by part."""
        self.batches += 1
        old_only = step.old_only
        if old_only and self._delta is None:
            return []  # round 1: every stored row is delta, none is old
        sources = self._sources(source for _, source in step.key)
        if sources is None:
            return []  # a key constant no stored row carries
        member = step.member
        key_of = _key_of(sources, member) if sources or member else None
        positions = tuple(p for p, _ in step.key)
        key = (step.predicate, step.arity)
        grown = self._grown.get(key, _NO_PARTS)
        starts = self._delta.get(key, _NO_PARTS) if old_only else _NO_PARTS
        repeats = step.repeats
        binds = step.binds
        out: List[List[int]] = []
        for part_id, part in self.store.parts(*key):
            rows = part.rows
            # Visible rows end where this round's appends start; old
            # rows end where the previous round's did.
            limit = grown.get(part_id, len(rows))
            if old_only:
                limit = starts.get(part_id, limit)
            if not limit:
                continue  # no visible row: no index to build or probe
            if member:
                # A missing row reads as number ``limit``: not visible.
                # The step binds nothing, so the binding itself goes on.
                number = part.row_pos.get
                out.extend(
                    binding for binding in frontier
                    if number(key_of(binding), limit) < limit
                )
            elif key_of is not None:
                index = part.index_for(positions)
                bounded = limit < len(rows)
                for binding in frontier:
                    bucket = index.get(key_of(binding))
                    if not bucket:
                        continue
                    for number in bucket:
                        if bounded and number >= limit:
                            continue
                        row = rows[number]
                        if repeats and not all(
                            row[p] == row[q] for p, q in repeats
                        ):
                            continue
                        extended = binding.copy()
                        for position, slot in binds:
                            extended[slot] = row[position]
                        out.append(extended)
            else:
                # No determined position: a scan step (cartesian
                # extension).
                matching = [
                    row
                    for row in rows[:limit]
                    if not repeats
                    or all(row[p] == row[q] for p, q in repeats)
                ]
                for binding in frontier:
                    for row in matching:
                        extended = binding.copy()
                        for position, slot in binds:
                            extended[slot] = row[position]
                        out.append(extended)
        return out

    def _unblocked(
        self, kernel: RuleKernel, frontier: List[List[int]]
    ) -> List[List[int]]:
        """The bindings no negated literal of *kernel* blocks: the
        literal's id row, projected like a head row, is in no part of
        its relation (one batch op per literal).  A constant never
        interned is carried by no stored row, so its literal passes."""
        for predicate, arity, template in kernel.negated:
            sources = self._sources(template)
            if sources is None:
                continue
            self.batches += 1
            row_of = _row_of(sources)
            for _, part in self.store.parts(predicate, arity):
                frontier = [
                    binding for binding in frontier
                    if row_of(binding) not in part
                ]
        return frontier

    # -- helpers -----------------------------------------------------------

    def _const_id(self, term: Term) -> Optional[int]:
        cid = self._const_ids.get(term)
        if cid is None:
            cid = self.table.id_of(term)
            if cid is not None:
                self._const_ids[term] = cid
        return cid

    def _sources(self, cells) -> Optional[List[Tuple[bool, int]]]:
        """*cells* (``(SLOT, slot)`` / ``(CONST, term)``) as
        :data:`Sources`; None if a constant has no id yet."""
        sources = []
        for kind, payload in cells:
            if kind == CONST:
                payload = self._const_id(payload)
                if payload is None:
                    return None
            sources.append((kind == CONST, payload))
        return sources

    def _join_plan(
        self, kernel: RuleKernel, pin: PinPlan
    ) -> Tuple[Tuple[Tuple[str, object], ...], object, Tuple[Term, ...]]:
        """*pin*'s one step as a row join, compiled on first use: its
        key cells over the pinned row (``(SLOT, position)`` or
        ``(CONST, term)``); the head's projection of ``pinned row +
        matched row + head constants`` — :data:`_PINNED` or
        :data:`_MATCHED` when the head is that row as stored; and the
        head's constant terms."""
        owner = (kernel, pin.pin_index)
        plan = self._head_rows.get(owner)
        if plan is None:
            (step,) = pin.steps
            at = {slot: position for position, slot in pin.binds}
            key_cells = tuple(
                (kind, at[payload] if kind == SLOT else payload)
                for _, (kind, payload) in step.key
            )
            if kernel.head == _cells(
                pin.arity,
                [(p, (CONST, term)) for p, term in pin.consts],
                pin.binds, pin.repeats,
            ):
                pick, terms = _PINNED, []
            elif kernel.head == _cells(
                step.arity, step.key, step.binds, step.repeats
            ):
                pick, terms = _MATCHED, []
            else:
                at.update(
                    (slot, pin.arity + position)
                    for position, slot in step.binds
                )
                width = pin.arity + step.arity
                terms = []
                positions = []
                for kind, payload in kernel.head:
                    if kind == CONST:
                        positions.append(width + len(terms))
                        terms.append(payload)
                    else:
                        positions.append(at[payload])
                pick = _pick(positions)
            plan = self._head_rows[owner] = (key_cells, pick, tuple(terms))
        return plan

    def _head_row(self, owner, template) -> Callable:
        """The projection of *owner*'s (a kernel's or a pin's) head
        *template* onto a binding or a row, built on its first fire:
        head constants are interned then — earlier would intern
        constants of rules that never fire, which the interpreter never
        does."""
        row_of = self._head_rows.get(owner)
        if row_of is None:
            row_of = self._head_rows[owner] = _row_of([
                (True, self.table.intern(payload)) if kind == CONST
                else (False, payload)
                for kind, payload in template
            ])
        return row_of
