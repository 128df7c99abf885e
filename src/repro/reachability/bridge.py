"""The reasoning ⇝ reachability bridge (Section 7, future work (2)).

The paper observes that reasoning with piece-wise linear warded TGDs is
LogSpace-equivalent to directed-graph reachability.  One direction is
classic (reachability *is* a linear-Datalog query); this module makes
the interesting direction executable: the linear proof search of
Section 4.3 explores a finite graph of canonical CQ configurations, and

    c̄ ∈ cert(q, D, Σ)   iff   the configuration graph has a path from
                               the instantiated query to the empty CQ.

:func:`configuration_graph` materializes that graph **once** per
(query, database, program) for *all* candidate answer tuples — every
per-tuple certainty check then becomes a single ``reaches(source,
accept)`` call against any index of :mod:`repro.reachability.index`.
This is exactly the adaptation the paper anticipates: build a
reachability index over the configuration space, answer certainty
queries at index speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.digraph import DiGraph
from ..analysis.levels import node_width_bound_pwl
from ..analysis.piecewise import is_piecewise_linear
from ..analysis.wardedness import is_warded
from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from ..reasoning.state import State, SuccessorGenerator
from .index import ReachabilityIndex

__all__ = ["ConfigurationGraph", "configuration_graph", "data_graph"]

#: The unique accepting configuration: the empty CQ.
ACCEPT = State(())


def data_graph(database: Database, predicate: str) -> DiGraph:
    """The directed graph stored in a binary EDB predicate."""
    graph = DiGraph()
    for atom in database.with_predicate(predicate):
        if atom.arity == 2:
            graph.add_edge(atom.args[0], atom.args[1])
    return graph


@dataclass
class ConfigurationGraph:
    """The materialized configuration space of the linear proof search."""

    graph: DiGraph
    source_of: Dict[Tuple[Constant, ...], State]
    width_bound: int
    explored: int                      # states expanded during the build
    truncated: bool = False            # True iff max_states cut the build

    @property
    def accept(self) -> State:
        return ACCEPT

    def certain(
        self, answer: Sequence[Constant], index: ReachabilityIndex
    ) -> bool:
        """Is *answer* certain?  One reachability query on the graph."""
        source = self.source_of.get(tuple(answer))
        if source is None:
            return False
        return index.reaches(source, ACCEPT)


def configuration_graph(
    query: ConjunctiveQuery,
    database: Database,
    program: Program,
    *,
    answers: Optional[Iterable[Sequence[Constant]]] = None,
    width_bound: Optional[int] = None,
    max_states: Optional[int] = None,
    check_membership: bool = True,
    use_oracle: bool = True,
) -> ConfigurationGraph:
    """Materialize the configuration graph for every candidate answer.

    *answers* defaults to all |dom(D)|^k output tuples; pass an iterable
    to restrict the sources.  The graph is the same one
    :func:`repro.reasoning.pwl_ward.decide_pwl_ward` explores
    (successor = one resolution/specialization step with eager
    database-fact decomposition), so path existence to the empty CQ is
    exactly Theorem 4.8 certainty.
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
        database,
        normalized,
        bound,
        use_oracle=use_oracle,
    )

    if answers is None:
        domain = sorted(database.constants(), key=str)
        arity = len(query.output)
        answers = itertools.product(domain, repeat=arity)

    graph = DiGraph()
    graph.add_node(ACCEPT)
    source_of: Dict[Tuple[Constant, ...], State] = {}
    frontier: List[State] = []
    discovered: Set[State] = {ACCEPT}

    for answer in answers:
        answer = tuple(answer)
        initial = State.make(query.instantiate(answer), database)
        source_of[answer] = initial
        graph.add_node(initial)
        if initial in discovered:
            continue
        discovered.add(initial)
        if initial.width() <= bound and not (
            not initial.is_accepting() and generator.is_dead(initial)
        ):
            frontier.append(initial)

    explored = 0
    truncated = False
    while frontier:
        if max_states is not None and len(discovered) > max_states:
            truncated = True
            break
        state = frontier.pop()
        explored += 1
        for successor in generator.successors(state):
            graph.add_edge(state, successor)
            if successor not in discovered:
                discovered.add(successor)
                if not successor.is_accepting():
                    frontier.append(successor)

    return ConfigurationGraph(
        graph=graph,
        source_of=source_of,
        width_bound=bound,
        explored=explored,
        truncated=truncated,
    )
