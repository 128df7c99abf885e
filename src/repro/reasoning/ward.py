"""Query answering for WARD: the alternating algorithm (Section 4.3).

For arbitrary warded sets linear proof trees do not suffice, but by
Theorem 4.9 bounded node-width proof trees do (bound ``f_WARD(q, Σ) =
2·max(|q|, max |body|)``).  The paper's algorithm builds the branches of
such a tree "in parallel universal computations using alternation"; the
deterministic rendering is a least fixpoint over an AND-OR graph of
configurations:

* OR moves — resolution and specialization successors of the current
  configuration (as in the linear search);
* AND move — *decomposition* of the configuration into the connected
  components of its variable-sharing graph: every component must be
  solved (Definition 4.4 guarantees components are independent).

A configuration is *accepted* iff it is empty, some OR successor is
accepted, or all components of its decomposition are accepted.  The
implementation expands the reachable graph breadth-first and propagates
acceptance backwards incrementally (counters on AND groups), stopping as
soon as the initial configuration is accepted — the textbook
polynomial-time evaluation of an alternating-logspace machine, which is
exactly how Proposition 3.2's PTime data complexity arises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..analysis.levels import node_width_bound_ward
from ..analysis.wardedness import is_warded
from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..prooftree.decomposition import connected_components
from .state import Frontier, SearchStats, State, SuccessorGenerator

__all__ = ["WardDecision", "decide_ward", "prepare_ward"]


@dataclass
class WardDecision:
    """Outcome of one alternating-search run."""

    accepted: bool
    stats: SearchStats
    width_bound: int
    discovered: int          # distinct configurations materialized
    exhausted: bool = True   # False iff the state cap stopped the search


def _search(initial_atoms, generator, strategy, max_states) -> WardDecision:
    """Least-fixpoint acceptance over the AND-OR configuration graph;
    ``generator.stats`` is this decision's own."""
    stats, database = generator.stats, generator.database
    width_bound = generator.width_bound
    initial = State.make(tuple(initial_atoms), database)
    stats.max_width = max(stats.max_width, initial.width())
    if initial.is_accepting():
        return WardDecision(True, stats, width_bound, 1)
    if initial.width() > width_bound or generator.is_dead(initial):
        return WardDecision(False, stats, width_bound, 1)

    accepted: Set[State] = set()
    discovered: Set[State] = {initial}
    or_parents: Dict[State, List[State]] = {}
    and_parents: Dict[State, List[State]] = {}
    and_pending: Dict[State, int] = {}
    queue = Frontier(strategy)
    queue.push(initial)

    def mark_accepted(state: State) -> None:
        stack = [state]
        while stack:
            current = stack.pop()
            if current in accepted:
                continue
            accepted.add(current)
            stack.extend(or_parents.get(current, ()))
            for parent in and_parents.get(current, ()):
                and_pending[parent] -= 1
                if and_pending[parent] == 0:
                    stack.append(parent)

    exhausted = True
    while queue and initial not in accepted:
        stats.max_frontier = max(stats.max_frontier, len(queue))
        if max_states is not None and len(discovered) > max_states:
            exhausted = False
            break
        state = queue.pop()
        if state in accepted:
            continue

        # AND move: decomposition into variable-sharing components.
        components = connected_components(state.atoms, set())
        if len(components) > 1:
            component_states = {
                State.make(tuple(component), database)
                for component in components
            }
            pending = {
                c
                for c in component_states
                if not c.is_accepting() and c not in accepted
            }
            if not pending:
                mark_accepted(state)
                continue
            live = [c for c in pending if not generator.is_dead(c)]
            if len(live) == len(pending):
                and_pending[state] = len(pending)
                for component_state in pending:
                    and_parents.setdefault(component_state, []).append(state)
                    if component_state not in discovered:
                        discovered.add(component_state)
                        queue.push(component_state)
            # (a dead component sinks this AND option; OR moves remain)

        # OR moves: resolution and specialization successors.
        settled = False
        for successor in generator.successors(state):
            if successor.is_accepting() or successor in accepted:
                mark_accepted(state)
                settled = True
                break
            or_parents.setdefault(successor, []).append(state)
            if successor not in discovered:
                discovered.add(successor)
                queue.push(successor)
        if settled:
            continue

    stats.visited = len(discovered)
    return WardDecision(
        accepted=initial in accepted,
        stats=stats,
        width_bound=width_bound,
        discovered=len(discovered),
        exhausted=exhausted or initial in accepted,
    )


def prepare_ward(
    query: ConjunctiveQuery, database: Database, program: Program, *,
    width_bound: Optional[int] = None, specialization: str = "guided",
    strategy: str = "bestfirst", check_membership: bool = True,
    max_states: Optional[int] = None,
    oracle: Optional[object] = None, use_oracle: bool = True,
) -> Callable[[Sequence[Constant]], WardDecision]:
    """:func:`decide_ward` minus the candidate: ``prepare(…)(c̄)``.

    Pays the membership verdict, the normal form, the width bound and
    the successor generator once per (q, D, Σ); same contract as
    :func:`repro.reasoning.pwl_ward.prepare_pwl_ward`, ``strategy`` and
    ``max_states`` included (a capped run reports ``exhausted=False``).
    """
    if check_membership and not is_warded(program):
        raise ValueError("program is not warded")
    normalized = program.single_head()
    bound = (
        width_bound
        if width_bound is not None
        else max(node_width_bound_ward(query, normalized), query.width())
    )
    generator = SuccessorGenerator(
        database, normalized, bound, specialization=specialization,
        oracle=oracle, use_oracle=use_oracle,
    )
    return lambda answer: _search(
        query.instantiate(tuple(answer)), generator.with_stats(SearchStats()),
        strategy, max_states,
    )


def decide_ward(
    query: ConjunctiveQuery,
    answer: Sequence[Constant],
    database: Database,
    program: Program,
    *,
    width_bound: Optional[int] = None,
    specialization: str = "guided",
    strategy: str = "bestfirst",
    check_membership: bool = True,
    max_states: Optional[int] = None,
    oracle: Optional[object] = None,
    use_oracle: bool = True,
) -> WardDecision:
    """Decide ``c̄ ∈ cert(q, D, Σ)`` for Σ ∈ WARD (Proposition 3.2).

    The width bound defaults to ``f_WARD(q, Σ)`` on the single-head
    normalization.
    """
    return prepare_ward(
        query, database, program, width_bound=width_bound,
        specialization=specialization, strategy=strategy,
        check_membership=check_membership, max_states=max_states,
        oracle=oracle, use_oracle=use_oracle,
    )(answer)
