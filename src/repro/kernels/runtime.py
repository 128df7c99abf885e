"""Batch execution of compiled rule kernels over the store's own rows.

A :class:`KernelEvaluator` holds no relation of its own: it joins the
:class:`~repro.storage.relation.Relation` objects of a kernel-capable
store (:attr:`~repro.core.store.FactStore.kernel_capable`) in place.
The store hands a relation out as a sequence of resident *parts*, one
at a time (``store.parts`` — the single relation of a columnar store,
each non-empty shard of a sharded one, paged in through its LRU/budget
path), and the evaluator

* probes each part through the part's own lazily built hash indexes
  (built on first probe, kept coherent by the relation's appends, and
  dropped with a shard when it is evicted);
* keeps the semi-naive delta as one append watermark per part: rows
  are numbered in append order, so the rows staged by the previous
  round are exactly ``[lo, hi)`` and "old" means ``number < lo``
  (round 1: ``lo = 0``, every stored row is delta);
* appends each pin's head rows through ``store.extend_rows``, which
  deduplicates once and reports the rows that were new and where they
  start.  Rows appended during a round sit at or above the part's
  ``hi`` and stay invisible to that round's joins, so the round still
  evaluates against its start-of-round snapshot.

Each semi-naive round runs every rule's pin plans as batch operations:
filter/project the delta rows of the pinned atom into a binding
frontier, then extend the frontier through each join step with one
hash probe per step, then drop the bindings a negated literal blocks
with one membership test per binding (``kernel_batches`` counts these
batch ops — per step or literal, however many parts it walks).  The
old/full row discipline per step reproduces the interpreter's
first-pin exact-once match counting — see :mod:`repro.kernels.compiler`
— so ``considered``, staged facts, and round structure agree with the
interpreter exactly.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

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

__all__ = ["KernelEvaluator"]

RelKey = Tuple[str, int]

#: relation → part id → a row number in that part: where the rows a
#: round appended start.
Watermarks = Dict[RelKey, Dict[int, int]]

_NO_PARTS: Mapping[int, int] = {}


class KernelEvaluator:
    """Semi-naive evaluation of one program as compiled batch kernels.

    The evaluator keeps binding frontiers and per-part watermarks, no
    rows: relations are read from, and head rows appended to, the
    *store*, which is therefore exactly what the interpreter would have
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
        #: Cumulative batch operations (pin filters + hash probes).
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
        #: kernel → (head slot layout, resolved head constant ids);
        #: constants resolve on the rule's first fire — resolving
        #: earlier would intern constants of rules that never fire,
        #: which the interpreter never does.
        self._head_layouts: Dict[RuleKernel, tuple] = {}

    # -- the round loop ----------------------------------------------------

    def rounds(
        self, max_rounds: Optional[int] = None
    ) -> Iterator[Tuple[int, Tuple[Atom, ...], int, int]]:
        """Run semi-naive rounds to fixpoint from the stored rows,
        yielding ``(index, staged_atoms, considered, batches)`` per
        round.  Staged atoms are in the store before the yield (the
        event's instance view is post-merge, as in the interpreter).
        The join indexes built on the store's parts along the way are
        released when the generator exits.
        """
        self._delta = None
        pending = len(self.store) > 0
        index = 0
        try:
            while pending and (max_rounds is None or index < max_rounds):
                index += 1
                before = self.batches
                self._grown = {}
                atoms, considered = self._run_round()
                self._delta = self._grown
                pending = bool(atoms)
                # Yield without keeping a reference: the consumer alone
                # decides how long a round's atoms live.
                event = (index, atoms, considered, self.batches - before)
                del atoms
                yield event
                del event
        finally:
            self.store.release_indexes()

    def _run_round(self) -> Tuple[Tuple[Atom, ...], int]:
        """One round over every rule: the atoms staged, and the body
        matches considered."""
        staged: List[Tuple[str, List[Row]]] = []
        considered = 0
        for kernel in self.kernels.kernels:
            head_slots, head_consts, head_getter = self._head_layout(kernel)
            for pin in kernel.pins:
                frontier = self._pin_frontier(kernel, pin)
                for step in pin.steps:
                    if not frontier:
                        break
                    frontier = self._probe(step, frontier)
                if frontier and kernel.negated:
                    frontier = self._unblocked(kernel, frontier)
                if not frontier:
                    continue
                considered += len(frontier)
                if head_consts is None:
                    head_consts = [
                        None if kind == SLOT else self.table.intern(payload)
                        for kind, payload in kernel.head
                    ]
                    self._head_layouts[kernel] = (
                        head_slots, head_consts, head_getter
                    )
                if head_getter is not None:
                    heads = map(head_getter, frontier)
                else:
                    span = range(kernel.head_arity)
                    heads = (
                        tuple(
                            head_consts[i] if head_slots[i] < 0
                            else binding[head_slots[i]]
                            for i in span
                        )
                        for binding in frontier
                    )
                head_key = (kernel.head_predicate, kernel.head_arity)
                for part_id, start, new in self.store.extend_rows(
                    *head_key, heads
                ):
                    # The first append of the round marks where the
                    # part's start-of-round rows end.
                    self._grown.setdefault(head_key, {}).setdefault(
                        part_id, start
                    )
                    staged.append((kernel.head_predicate, new))
        atoms = tuple(
            self._decode(predicate, row)
            for predicate, rows in staged
            for row in rows
        )
        return atoms, considered

    def _pin_frontier(
        self, kernel: RuleKernel, pin: PinPlan
    ) -> Optional[List[List[int]]]:
        """Filter/project the pinned atom's delta rows into bindings
        (None, and no batch counted, when the relation has no delta)."""
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
        num_slots = kernel.num_slots
        frontier: Optional[List[List[int]]] = None
        for part_id, part in self.store.parts(*key, starts):
            rows = part.rows
            lo = 0 if starts is None else starts[part_id]
            hi = grown.get(part_id, len(rows))
            if lo == hi:
                continue  # an empty part this round's appends created
            if frontier is None:
                self.batches += 1
                frontier = []
            if unmatchable:
                break
            for row in rows[lo:hi]:
                if consts and not all(row[p] == cid for p, cid in consts):
                    continue
                if pin.repeats and not all(
                    row[p] == row[q] for p, q in pin.repeats
                ):
                    continue
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
        key_of = None
        if step.key:
            positions = tuple(p for p, _ in step.key)
            sources = []
            for _, (kind, payload) in step.key:
                if kind == CONST:
                    cid = self._const_id(payload)
                    if cid is None:
                        return []
                    sources.append((True, cid))
                else:
                    sources.append((False, payload))
            # Specialize the per-binding key construction: single-column
            # indexes take the bare id, all-slot composites go through
            # one itemgetter call; the generic path handles mixed
            # slot/constant keys.
            if len(sources) == 1:
                is_const, payload = sources[0]
                key_of = (
                    (lambda binding, _k=payload: _k) if is_const
                    else (lambda binding, _s=payload: binding[_s])
                )
            elif all(not is_const for is_const, _ in sources):
                key_of = itemgetter(*(payload for _, payload in sources))
            else:
                def key_of(binding, _sources=tuple(sources)):
                    return tuple(
                        payload if is_const else binding[payload]
                        for is_const, payload in _sources
                    )
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
            if key_of is not None:
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
            cells = [
                (kind == SLOT, payload if kind == SLOT
                 else self._const_id(payload))
                for kind, payload in template
            ]
            if any(cid is None for _, cid in cells):
                continue
            self.batches += 1
            for _, part in self.store.parts(predicate, arity):
                frontier = [
                    binding for binding in frontier
                    if tuple(
                        binding[value] if is_slot else value
                        for is_slot, value in cells
                    ) not in part
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

    def _head_layout(self, kernel: RuleKernel):
        cached = self._head_layouts.get(kernel)
        if cached is not None:
            return cached
        slots = [
            payload if kind == SLOT else -1
            for kind, payload in kernel.head
        ]
        if all(kind == SLOT for kind, _ in kernel.head):
            # Pure-slot heads project through one C-level call.
            if len(slots) == 0:
                getter = lambda binding: ()  # noqa: E731
            elif len(slots) == 1:
                getter = lambda binding, _s=slots[0]: (binding[_s],)  # noqa: E731
            else:
                getter = itemgetter(*slots)
            consts: Optional[List[Optional[int]]] = []
            self._head_layouts[kernel] = (slots, consts, getter)
            return slots, consts, getter
        return slots, None, None  # constants resolve on first fire

    def _decode(self, predicate: str, row: Row) -> Atom:
        return Atom(predicate, tuple(map(self.table.term, row)))
