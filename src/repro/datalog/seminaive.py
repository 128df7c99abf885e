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
* stratum-by-stratum evaluation with materialization boundaries
  (Section 7(3), :mod:`repro.datalog.strata`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..core.atoms import Atom
from ..core.instance import Database
from ..core.match import AtomSet, rule_heads
from ..core.program import Program
from ..core.query import ConjunctiveQuery, stream_new_answers
from ..core.terms import Constant
from ..kernels import KernelEvaluator
from ..storage import FactStore, StoreChoice, kernel_capable, make_store

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
    facts staged (and already merged) in that round.  ``instance`` is
    the live store *after* the merge, shared across events.
    """

    index: int
    staged: tuple[Atom, ...]
    considered: int
    instance: FactStore
    #: Batch operations this round executed (kernel mode only) and the
    #: mode that produced the event — observability for
    #: :class:`~repro.api.stream.StreamStats`.
    batches: int = 0
    exec_mode: str = "interpret"


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
    """
    _check_datalog(program)
    instance = make_store(store, database)
    if kernel_capable(instance):
        yield SemiNaiveRound(
            index=0, staged=tuple(database), considered=0,
            instance=instance, exec_mode="kernel",
        )
        # Post-merge instance view per event, same as the interpreter.
        for index, staged, considered, batches in KernelEvaluator(
            instance, program
        ).rounds(max_rounds):
            yield SemiNaiveRound(
                index=index,
                staged=staged,
                considered=considered,
                instance=instance,
                batches=batches,
                exec_mode="kernel",
            )
        return
    yield SemiNaiveRound(
        index=0, staged=tuple(database), considered=0, instance=instance
    )
    yield from delta_rounds(instance, AtomSet(database), program, max_rounds)


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
            staged=tuple(staged),
            considered=round_considered,
            instance=instance,
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
    rounds = 0
    derived = 0
    considered = 0
    batches = 0
    resolved_exec = "interpret"
    per_round_considered: List[int] = []
    per_round_derived: List[int] = []
    for event in seminaive_rounds(database, program, max_rounds, store=store):
        instance = event.instance
        resolved_exec = event.exec_mode
        if event.index == 0:
            continue
        rounds = event.index
        derived += len(event.staged)
        considered += event.considered
        batches += event.batches
        per_round_considered.append(event.considered)
        per_round_derived.append(len(event.staged))
    assert instance is not None
    return SemiNaiveResult(
        instance=instance,
        rounds=rounds,
        derived=derived,
        considered=considered,
        per_round_considered=tuple(per_round_considered),
        per_round_derived=tuple(per_round_derived),
        exec_mode=resolved_exec,
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
) -> Iterable[tuple[Constant, ...]]:
    """Yield ``cert(q, D, Σ)`` tuples as the fixpoint rounds land.

    Answers are produced incrementally: after each semi-naive round that
    staged an atom of a query predicate, the delta-restricted evaluation
    (:meth:`~repro.core.query.ConjunctiveQuery.evaluate_delta`) emits the
    answers whose earliest witness that round completed.  The union over
    all rounds equals the eager :func:`datalog_answers` set.
    ``on_fixpoint``, if given, receives the final :class:`FactStore`
    (callers use it to cache the materialization).  ``stats``, if given,
    receives running ``rounds``, ``derived``, ``exec_mode`` and
    ``kernel_batches`` attributes.
    """
    last_instance: List[Optional[FactStore]] = [None]

    def tap(events):
        derived = 0
        batches = 0
        for event in events:
            last_instance[0] = event.instance
            if event.index > 0:
                derived += len(event.staged)
                batches += event.batches
            if stats is not None:
                stats.rounds = event.index
                stats.derived = derived
                stats.exec_mode = event.exec_mode
                stats.kernel_batches = batches
            yield event

    yield from stream_new_answers(
        query,
        tap(seminaive_rounds(database, program, store=store)),
        lambda event: event.staged,
    )
    if on_fixpoint is not None and last_instance[0] is not None:
        on_fixpoint(last_instance[0])


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
    return set(stream_datalog_answers(query, database, program, store=store))
