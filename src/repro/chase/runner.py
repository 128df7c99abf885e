"""The chase procedure (Section 2).

Given a database D and a set Σ of TGDs, a chase sequence applies
applicable triggers fairly until the accumulated instance satisfies Σ.
The result ``chase(D, Σ)`` is unique enough for query answering: every
result embeds homomorphically into every other (Proposition 2.1:
``cert(q, D, Σ) = q(chase(D, Σ))``).

Two variants are provided:

* **restricted** (default) — a trigger fires only if its head is not
  already satisfied (the body match does not extend to a head match);
  terminates on many practical programs;
* **oblivious** — every trigger fires exactly once; simpler structure,
  bigger instances.

Termination is controlled by resource limits (steps, atoms, null depth)
and pluggable :mod:`policies <repro.chase.termination>`; the result
reports whether the chase *saturated* (no applicable trigger remained)
or stopped early.  A truncated chase is still sound for certain-answer
purposes: every atom it contains belongs to some chase result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set

from ..core.atoms import Atom
from ..core.homomorphism import find_homomorphism
from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery, stream_new_answers
from ..core.terms import Constant, NullFactory, Term, Variable
from ..storage import FactStore, StoreChoice, make_store
from .graph import ChaseGraph
from .termination import AlwaysFire, TerminationPolicy
from .trigger import Trigger, all_triggers, fire, triggers_for_new_atom

__all__ = [
    "ChaseEvent",
    "ChaseResult",
    "ChaseRun",
    "chase",
    "chase_events",
    "stream_chase_answers",
]


@dataclass
class ChaseResult:
    """Outcome of a chase run.

    ``instance`` is whichever :class:`FactStore` backend the run was
    asked to materialize into (an :class:`Instance` by default).
    """

    instance: FactStore
    saturated: bool                 # True iff no applicable trigger remained
    fired: int                      # number of triggers that fired
    suppressed: int                 # triggers withheld by the policy
    graph: Optional[ChaseGraph] = None
    null_factory: Optional[NullFactory] = None

    def evaluate(self, query: ConjunctiveQuery) -> set[tuple[Constant, ...]]:
        """``q(chase(D, Σ))`` — equals cert(q, D, Σ) when saturated."""
        return query.evaluate(self.instance)


def _head_already_satisfied(trigger: Trigger, instance: FactStore) -> bool:
    """Restricted-chase check: does h|frontier extend to the head in I?"""
    tgd = trigger.tgd
    if not tgd.existential_variables():
        # h already grounds the head: the extension test is membership.
        return all(atom in instance for atom in trigger.ground_head)
    seed: Dict[Variable, Term] = {
        v: trigger.substitution[v] for v in tgd.frontier()
    }
    return find_homomorphism(list(tgd.head), instance, seed) is not None


@dataclass(frozen=True)
class ChaseEvent:
    """One pull-based event of a chase run.

    Event 0 carries the seeded database; each later event carries the
    atoms one trigger firing added.  ``instance`` is the live store
    *after* the addition, shared across events.
    """

    index: int
    new_atoms: tuple[Atom, ...]
    instance: FactStore


@dataclass
class ChaseRun:
    """Mutable run record shared between :func:`chase_events` and its
    drivers; filled in as the generator is drained."""

    instance: Optional[FactStore] = None
    saturated: bool = True
    fired: int = 0
    suppressed: int = 0
    graph: Optional[ChaseGraph] = None
    null_factory: Optional[NullFactory] = None

    def result(self) -> ChaseResult:
        assert self.instance is not None
        return ChaseResult(
            instance=self.instance,
            saturated=self.saturated,
            fired=self.fired,
            suppressed=self.suppressed,
            graph=self.graph,
            null_factory=self.null_factory,
        )


def chase_events(
    database: Database,
    program: Program,
    *,
    variant: str = "restricted",
    policy: Optional[TerminationPolicy] = None,
    max_steps: Optional[int] = None,
    max_atoms: Optional[int] = None,
    record_graph: bool = False,
    null_factory: Optional[NullFactory] = None,
    store: StoreChoice = "instance",
    run: Optional[ChaseRun] = None,
):
    """Run a fair chase of *database* under *program*, lazily.

    This is the engine core: a generator of :class:`ChaseEvent` that
    :func:`chase` drains eagerly and :func:`stream_chase_answers` taps
    for incremental answers.  The trigger queue is FIFO over newly
    derived atoms (semi-naive discovery), which yields a fair sequence:
    every applicable trigger is eventually considered.  ``max_steps``
    bounds fired triggers and ``max_atoms`` bounds the instance size;
    hitting either limit records ``saturated=False`` on *run*.

    ``store`` selects the materialization backend (see
    :data:`repro.storage.BACKENDS`); every backend yields the same chase
    up to the representation of the instance.
    """
    if variant not in ("restricted", "oblivious"):
        raise ValueError(f"unknown chase variant {variant!r}")
    run = run if run is not None else ChaseRun()
    policy = policy or AlwaysFire()
    factory = null_factory or NullFactory()
    run.null_factory = factory
    instance = make_store(store, database)
    run.instance = instance
    graph = ChaseGraph() if record_graph else None
    run.graph = graph
    if graph is not None:
        for atom in instance:
            graph.add_database_atom(atom)

    tgds = list(program)
    seen_triggers: Set[tuple] = set()
    queue: Deque[Trigger] = deque()

    def enqueue(trigger: Trigger) -> None:
        key = trigger.key()
        if key not in seen_triggers:
            seen_triggers.add(key)
            queue.append(trigger)

    for trigger in all_triggers(tgds, instance):
        enqueue(trigger)

    yield ChaseEvent(index=0, new_atoms=tuple(instance), instance=instance)
    event_index = 0

    while queue:
        if max_steps is not None and run.fired >= max_steps:
            run.saturated = False
            break
        if max_atoms is not None and len(instance) >= max_atoms:
            run.saturated = False
            break
        trigger = queue.popleft()
        if variant == "restricted" and _head_already_satisfied(trigger, instance):
            continue
        produced, nulls = fire(trigger, factory)
        if not policy.should_fire(trigger, produced, instance):
            run.suppressed += 1
            continue
        run.fired += 1
        new_atoms = [a for a in produced if a not in instance]
        if graph is not None and new_atoms:
            graph.record_firing(
                trigger.tgd_index, trigger.extended(nulls), trigger.image, new_atoms
            )
        for atom in new_atoms:
            instance.add(atom)
        for atom in new_atoms:
            for new_trigger in triggers_for_new_atom(tgds, atom, instance):
                enqueue(new_trigger)
        if new_atoms:
            event_index += 1
            yield ChaseEvent(
                index=event_index,
                new_atoms=tuple(new_atoms),
                instance=instance,
            )

    if queue:
        run.saturated = False


def chase(
    database: Database,
    program: Program,
    **chase_kwargs,
) -> ChaseResult:
    """Run a fair chase of *database* under *program* to completion.

    Thin eager driver over :func:`chase_events`; see there for the
    keyword arguments and fairness/limit semantics.
    """
    run = ChaseRun()
    for _ in chase_events(database, program, run=run, **chase_kwargs):
        pass
    return run.result()


def stream_chase_answers(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
    *,
    run: Optional[ChaseRun] = None,
    on_fixpoint=None,
    **chase_kwargs,
):
    """Yield ``q(chase(D, Σ))`` tuples as the chase derives them.

    Sound at every prefix (a truncated chase only under-approximates);
    complete exactly when the chase saturates — inspect *run* after
    exhaustion, or use the planner path which raises for the strict
    certain-answer semantics.  ``on_fixpoint``, if given, receives the
    final :class:`FactStore` of a *saturated* run (for caching).
    """
    run = run if run is not None else ChaseRun()
    yield from stream_new_answers(
        query,
        chase_events(database, program, run=run, **chase_kwargs),
        lambda event: event.new_atoms,
    )
    if on_fixpoint is not None and run.saturated and run.instance is not None:
        on_fixpoint(run.instance)
