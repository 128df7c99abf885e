"""Semi-naive bottom-up evaluation of Datalog programs.

A Datalog program is a set of *full* single-head TGDs (no existential
variables).  Semi-naive evaluation computes the least fixpoint by only
joining rule bodies against the *delta* (facts new in the previous
round), which avoids rediscovering old derivations — the standard
technique every deductive engine uses.

This engine is the substrate for:

* evaluating the piece-wise linear Datalog programs produced by the
  Lemma 6.4 rewriting (Section 6),
* the Datalog baseline in the benchmarks,
* stratified negation, the paper's "mild negation" (key property
  (2)): a program with negated literals runs stratum by stratum
  (:func:`seminaive_rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, List, Optional, Sequence

from ..core.atoms import Atom
from ..core.instance import Database
from ..core.match import AtomSet, rule_heads
from ..core.program import Program
from ..core.query import ConjunctiveQuery, stream_new_answers
from ..core.terms import Constant
from ..kernels import (
    KernelEvaluator,
    RowRange,
    decode_ranges,
    stream_query_answers,
)
from ..lint import LintError, run_lint
from ..storage import FactStore, StoreChoice, kernel_capable, make_store
from .strata import compute_strata

__all__ = [
    "SemiNaiveResult",
    "SemiNaiveRound",
    "seminaive",
    "seminaive_rounds",
    "delta_rounds",
    "datalog_answers",
    "stream_datalog_answers",
]

@dataclass
class SemiNaiveResult:
    """The least fixpoint, with evaluation statistics."""

    instance: FactStore
    rounds: int
    derived: int            # facts added beyond the database
    considered: int         # body matches examined (work measure)
    per_round_considered: tuple[int, ...] = ()
    per_round_derived: tuple[int, ...] = ()
    exec_mode: str = "interpret"   # core that ran (kernel/interpret)
    batches: int = 0               # kernel batch operations executed

    def evaluate(self, query: ConjunctiveQuery) -> set[tuple[Constant, ...]]:
        """Evaluate a CQ over the least fixpoint."""
        return query.evaluate(self.instance)


def _check_datalog(program: Program) -> None:
    for tgd in program:
        if not tgd.is_full():
            raise ValueError(
                f"semi-naive evaluation needs full TGDs, but {tgd} has "
                "existential variables"
            )
        if not tgd.is_single_head():
            raise ValueError(
                "semi-naive evaluation needs single-head TGDs; normalize "
                f"first ({tgd} has {len(tgd.head)} head atoms)"
            )


@dataclass(frozen=True)
class SemiNaiveRound:
    """One pull-based event of the semi-naive fixpoint.

    Round 0 carries the seeded database; each later round carries the
    facts staged (and already merged) in that round — as atoms from
    the interpreter, as the row ranges they occupy in the store from
    the kernels.  ``instance`` is the live store *after* the merge,
    shared across events.
    """

    index: int
    considered: int
    instance: FactStore
    #: Batch operations this round executed (kernel mode only) and the
    #: mode that produced the event — observability for
    #: :class:`~repro.api.stream.StreamStats`.
    batches: int = 0
    exec_mode: str = "interpret"
    #: The staged atoms (the interpreter, and every round 0).
    atoms: tuple[Atom, ...] = ()
    #: The staged rows (kernel rounds): per store part the round
    #: appended to, ``(predicate, arity, part, lo, hi)``.
    ranges: tuple[RowRange, ...] = ()

    @cached_property
    def staged(self) -> tuple[Atom, ...]:
        """The facts the event added, as atoms.  A kernel round's are
        decoded from its ``ranges`` on first access, and are valid
        until the store is next mutated by anything but an append —
        later rounds only append, so an event read after the run still
        decodes its own round."""
        if self.ranges:
            return decode_ranges(self.instance, self.ranges)
        return self.atoms

    @property
    def derived(self) -> int:
        """How many facts the event added (no decoding)."""
        return len(self.atoms) + sum(
            hi - lo for _, _, _, lo, hi in self.ranges
        )


def seminaive_rounds(
    database: Database,
    program: Program,
    max_rounds: Optional[int] = None,
    *,
    store: StoreChoice = "instance",
) -> Iterable[SemiNaiveRound]:
    """The semi-naive fixpoint as a lazy generator of round events.

    This is the engine core; :func:`seminaive` drains it eagerly and
    :func:`stream_datalog_answers` taps it to yield query answers as
    each round lands.  ``store`` selects the storage backend (see
    :data:`repro.storage.BACKENDS`), and the backend selects how the
    rounds run: a store that is
    :func:`~repro.storage.kernel_capable` (columnar, sharded) has its
    rules compiled to batch kernels that join its interned id rows in
    place; any other store (instance) runs the per-tuple interpreter.
    Both bodies produce identical events — rounds, staged facts and
    ``considered`` counts — which is what makes ``store="instance"``
    the kernels' reference; ``exec_mode`` on each event reports which
    one ran.

    A program with negated literals (stratified negation, the paper's
    "mild negation") runs stratum by stratum: the layers of
    :func:`~repro.datalog.strata.compute_strata` in order on the one
    store, each later stratum seeded with the whole store as its first
    delta, so the predicates it negates are complete before it reads
    them.  Its lint errors — unsafe negation (E101), arity conflicts
    with the rules or *database* (E102), negation through recursion
    (E103) — raise :class:`~repro.lint.LintError` instead.  Event
    indices count rounds over all strata.  A positive program is one
    stratum.
    """
    _check_datalog(program)
    layers: Sequence = (program,)
    if any(tgd.negated for tgd in program):
        program = Program(program, getattr(program, "name", ""))
        errors = run_lint(program, facts=database).errors()
        if errors:
            raise LintError(errors, program.name)
        layers = compute_strata(program).layers
    instance = make_store(store, database)
    kernels = kernel_capable(instance)
    exec_mode = "kernel" if kernels else "interpret"
    yield SemiNaiveRound(
        index=0, atoms=tuple(database), considered=0, instance=instance,
        exec_mode=exec_mode,
    )
    done = 0
    for number, layer in enumerate(layers):
        budget = None if max_rounds is None else max_rounds - done
        if kernels:
            events = _kernel_rounds(instance, layer, budget)
        else:
            delta = AtomSet(database if number == 0 else instance)
            events = delta_rounds(instance, delta, layer, budget)
        last = 0
        for event in events:
            last = event.index
            if done:
                event = replace(event, index=done + last)
            yield event
            del event  # the round's atoms go before the next round runs
        done += last


def _kernel_rounds(
    instance: FactStore, program: Iterable, max_rounds: Optional[int]
) -> Iterable[SemiNaiveRound]:
    """The kernels' round loop over *instance*'s stored rows, as events
    with the post-merge instance view, same as the interpreter's; each
    carries its staged facts as row ranges."""
    for index, ranges, considered, batches in KernelEvaluator(
        instance, program
    ).rounds(max_rounds):
        yield SemiNaiveRound(
            index=index,
            considered=considered,
            instance=instance,
            batches=batches,
            exec_mode="kernel",
            ranges=ranges,
        )


def delta_rounds(
    instance: FactStore,
    delta: AtomSet,
    program: Iterable,
    max_rounds: Optional[int] = None,
) -> Iterable[SemiNaiveRound]:
    """The interpreter's round loop: join the rules of *program* against
    *delta*, merge the staged facts into *instance*, repeat to fixpoint.

    *delta* is read during the first round only, so a caller may extend
    it between events — the insertion phase of
    :class:`~repro.incremental.FixpointMaintainer` runs one stratum's
    rules through here, seeded from a batch's new facts."""
    rounds = 0
    while len(delta) > 0:
        if max_rounds is not None and rounds >= max_rounds:
            break
        rounds += 1
        round_considered = 0
        staged: List[Atom] = []
        staged_set: set[Atom] = set()
        for fact in rule_heads(program, instance, delta):
            round_considered += 1
            if fact not in instance and fact not in staged_set:
                staged_set.add(fact)
                staged.append(fact)
        # Merge only after the full round: every rule joins against the
        # same snapshot, so rounds/considered are independent of rule
        # and hash iteration order.
        instance.add_all(staged)
        delta = AtomSet(staged)
        yield SemiNaiveRound(
            index=rounds,
            considered=round_considered,
            instance=instance,
            atoms=tuple(staged),
        )


def seminaive(
    database: Database,
    program: Program,
    max_rounds: Optional[int] = None,
    *,
    store: StoreChoice = "instance",
) -> SemiNaiveResult:
    """Compute the least fixpoint of a Datalog program over a database.

    Thin eager driver over :func:`seminaive_rounds`; see there for the
    round structure and how ``store`` selects the evaluation body.
    """
    instance: Optional[FactStore] = None
    exec_mode = "interpret"
    rounds = batches = 0
    considered: List[int] = []
    derived: List[int] = []
    for event in seminaive_rounds(database, program, max_rounds, store=store):
        instance, exec_mode = event.instance, event.exec_mode
        if event.index:
            rounds = event.index
            batches += event.batches
            considered.append(event.considered)
            derived.append(event.derived)
        del event  # the round's atoms go before the next round runs
    assert instance is not None
    return SemiNaiveResult(
        instance=instance,
        rounds=rounds,
        derived=sum(derived),
        considered=sum(considered),
        per_round_considered=tuple(considered),
        per_round_derived=tuple(derived),
        exec_mode=exec_mode,
        batches=batches,
    )


def stream_datalog_answers(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
    *,
    store: StoreChoice = "instance",
    on_fixpoint=None,
    stats=None,
) -> Iterable[Sequence[tuple[Constant, ...]]]:
    """Yield ``cert(q, D, Σ)`` in blocks as the fixpoint rounds land.

    Answers are produced incrementally: after each semi-naive round that
    staged an atom of a query predicate, the delta-restricted evaluation
    (:meth:`~repro.core.query.ConjunctiveQuery.evaluate_delta`) emits the
    answers whose earliest witness that round completed, as one list in
    ``str`` order — on a kernel-capable store, read off the round's id
    rows by the query's own pin plans
    (:func:`~repro.kernels.stream_query_answers`), so no staged fact is
    decoded, and a block is an :class:`~repro.kernels.AnswerBlock` of id
    rows whose answers are decoded when read.  The union of the blocks
    equals the eager :func:`datalog_answers` set.
    ``on_fixpoint``, if given, receives the final :class:`FactStore`
    (callers use it to cache the materialization).  ``stats``, if given,
    receives running ``rounds``, ``derived``, ``exec_mode`` and
    ``kernel_batches`` attributes, and ``saturated`` at the fixpoint.
    """
    fixpoint: Optional[FactStore] = None

    def tap(events):
        nonlocal fixpoint
        derived = batches = 0
        for event in events:
            fixpoint = event.instance
            if event.index > 0:
                derived += event.derived
                batches += event.batches
            if stats is not None:
                stats.rounds, stats.derived = event.index, derived
                stats.exec_mode, stats.kernel_batches = event.exec_mode, batches
            yield event

    events = tap(seminaive_rounds(database, program, store=store))
    if kernel_capable(store):
        yield from stream_query_answers(query, events)
    else:
        yield from stream_new_answers(query, events, lambda e: e.staged)
    if stats is not None:
        stats.saturated = True
    if on_fixpoint is not None and fixpoint is not None:
        on_fixpoint(fixpoint)


def datalog_answers(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
    *,
    store: StoreChoice = "instance",
) -> set[tuple[Constant, ...]]:
    """``cert(q, D, Σ)`` for a Datalog program: evaluate over the fixpoint.

    Thin eager wrapper over :func:`stream_datalog_answers`.
    """
    return set().union(
        *stream_datalog_answers(query, database, program, store=store)
    )
