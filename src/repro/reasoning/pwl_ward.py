"""Query answering for WARD ∩ PWL: the Section 4.3 algorithm.

By Theorem 4.8, ``c̄ ∈ cert(q, D, Σ)`` for a piece-wise linear warded Σ
iff there is a *linear* proof tree of q w.r.t. Σ with node-width at most
``f_WARD∩PWL(q, Σ)`` whose induced CQ answers c̄ over D.  The paper's
non-deterministic algorithm walks such a tree level by level, holding a
single CQ ``p`` and applying resolution / decomposition / specialization
until ``atoms(p) ⊆ D``.

The deterministic simulation is a breadth-first search over the finite
graph of canonical configurations (:mod:`repro.reasoning.state`): the
non-deterministic machine accepts iff the empty configuration is
reachable, which is exactly the NLogSpace ⊆ reachability argument made
executable.  The search reports space statistics (visited states,
frontier peak, maximal CQ width) that the E2/E3 benchmarks use as the
space-complexity observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..analysis.levels import node_width_bound_pwl
from ..analysis.piecewise import is_piecewise_linear
from ..analysis.wardedness import is_warded
from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from .state import Frontier, SearchStats, State, SuccessorGenerator

__all__ = ["PWLDecision", "decide_pwl_ward", "prepare_pwl_ward"]


@dataclass
class PWLDecision:
    """Outcome of one decision-problem run."""

    accepted: bool
    stats: SearchStats
    width_bound: int
    trace: Optional[List[State]] = None   # an accepting path, if requested


def _search(initial_atoms, generator, strategy, trace, max_states) -> PWLDecision:
    """The search proper; ``generator.stats`` is this decision's own."""
    stats, database = generator.stats, generator.database
    width_bound = generator.width_bound
    initial = State.make(tuple(initial_atoms), database)
    stats.max_width = max(stats.max_width, initial.width())
    if initial.width() > width_bound:
        return PWLDecision(False, stats, width_bound, None)
    if not initial.is_accepting() and generator.is_dead(initial):
        return PWLDecision(False, stats, width_bound, None)

    # What the paper's machine may hold: the visited set.  Parent
    # pointers (a second State reference per configuration) are kept
    # only when the caller asked for the accepting path.
    visited: Set[State] = {initial}
    parents: Dict[State, State] = {}
    queue = Frontier(strategy)
    queue.push(initial)
    stats.visited = 1

    def accept(state: State) -> PWLDecision:
        path = None
        if trace:
            path = [state]
            while path[-1] in parents:
                path.append(parents[path[-1]])
            path.reverse()
        return PWLDecision(True, stats, width_bound, path)

    if initial.is_accepting():
        return accept(initial)

    while queue:
        stats.max_frontier = max(stats.max_frontier, len(queue))
        state = queue.pop()
        for successor in generator.successors(state):
            if successor in visited:
                continue
            visited.add(successor)
            if trace:
                parents[successor] = state
            stats.visited += 1
            if successor.is_accepting():
                return accept(successor)
            queue.push(successor)
            if max_states is not None and stats.visited >= max_states:
                return PWLDecision(False, stats, width_bound, None)

    return PWLDecision(False, stats, width_bound, None)


def prepare_pwl_ward(
    query: ConjunctiveQuery, database: Database, program: Program, *,
    width_bound: Optional[int] = None, specialization: str = "guided",
    strategy: str = "bestfirst", check_membership: bool = True,
    trace: bool = False, max_states: Optional[int] = None,
    oracle: Optional[object] = None, use_oracle: bool = True,
) -> Callable[[Sequence[Constant]], PWLDecision]:
    """:func:`decide_pwl_ward` minus the candidate: ``prepare(…)(c̄)``.

    q, D and Σ are fixed across the candidates of an answer stream, so
    the membership verdicts, the single-head normal form, the width
    bound and the successor generator are paid here, once.  The decider
    returned instantiates q with c̄ and searches, metering into a fresh
    :class:`SearchStats`: it carries nothing from one candidate to the
    next and may be called from several threads.

    ``strategy`` selects the frontier order
    (:class:`repro.reasoning.state.Frontier`): narrowest-first by
    default, or the paper-literal BFS.  ``max_states`` optionally caps
    the explored state count (the search is then incomplete but still
    sound); the benchmarks use the cap as a safety net only.
    """
    if check_membership:
        if not is_warded(program):
            raise ValueError("program is not warded")
        if not is_piecewise_linear(program):
            raise ValueError("program is not piece-wise linear")
    normalized = program.single_head()
    bound = (
        width_bound
        if width_bound is not None
        else max(node_width_bound_pwl(query, normalized), query.width())
    )
    generator = SuccessorGenerator(
        database, normalized, bound, specialization=specialization,
        oracle=oracle, use_oracle=use_oracle,
    )
    return lambda answer: _search(
        query.instantiate(tuple(answer)), generator.with_stats(SearchStats()),
        strategy, trace, max_states,
    )


def decide_pwl_ward(
    query: ConjunctiveQuery,
    answer: Sequence[Constant],
    database: Database,
    program: Program,
    *,
    width_bound: Optional[int] = None,
    specialization: str = "guided",
    strategy: str = "bestfirst",
    check_membership: bool = True,
    trace: bool = False,
    max_states: Optional[int] = None,
    oracle: Optional[object] = None,
    use_oracle: bool = True,
) -> PWLDecision:
    """Decide ``c̄ ∈ cert(q, D, Σ)`` for Σ ∈ WARD ∩ PWL (Theorem 4.2).

    The program is normalized to single-head form; the width bound
    defaults to ``f_WARD∩PWL(q, Σ)`` computed on the normalized program.
    With ``check_membership`` the WARD and PWL conditions are verified
    up front (completeness of the linear search is only guaranteed
    inside the class — Theorem 5.1 shows PWL alone is undecidable).
    """
    return prepare_pwl_ward(
        query, database, program, width_bound=width_bound,
        specialization=specialization, strategy=strategy,
        check_membership=check_membership, trace=trace,
        max_states=max_states, oracle=oracle, use_oracle=use_oracle,
    )(answer)
