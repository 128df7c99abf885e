"""The predicate graph and mutual recursion (Section 4).

The predicate graph ``pg(Σ)`` of a set of TGDs is the directed graph
whose vertices are the predicates of ``sch(Σ)``, with an edge P → R iff
some TGD has P in its body and R in its head.  Two predicates are
*mutually recursive* iff some cycle of ``pg(Σ)`` contains both — i.e.,
they lie in the same strongly connected component *and* that component
contains a cycle (a single vertex only qualifies if it has a self-loop).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.program import Program
from .digraph import DiGraph

__all__ = ["PredicateGraph"]


class PredicateGraph:
    """``pg(Σ)`` with SCC decomposition and mutual-recursion queries.

    SCCs are computed once (:meth:`DiGraph.sccs`) and all queries are
    O(1) dictionary lookups after that.  Vertices enter the graph in
    sorted order, which fixes the order components are emitted in — the
    strata schedule of every fixpoint engine follows it.
    """

    def __init__(self, program: Program):
        self._graph = DiGraph()
        for vertex in sorted(program.schema()):
            self._graph.add_node(vertex)
        for tgd in program:
            for body_pred in tgd.body_predicates():
                for head_pred in tgd.head_predicates():
                    self._graph.add_edge(body_pred, head_pred)
        self._sccs: List[frozenset[str]] = [
            frozenset(component) for component in self._graph.sccs()
        ]
        self._scc_of: Dict[str, int] = {
            member: scc_id
            for scc_id, component in enumerate(self._sccs)
            for member in component
        }
        #: Components containing a cycle: size > 1, or a self-loop.
        self._cyclic: Set[int] = {
            scc_id
            for vertex, scc_id in self._scc_of.items()
            if len(self._sccs[scc_id]) > 1
            or vertex in self._graph.successors(vertex)
        }

    # -- queries -----------------------------------------------------------

    def vertices(self) -> frozenset[str]:
        return frozenset(self._graph.nodes())

    def successors(self, predicate: str) -> frozenset[str]:
        """Predicates R with an edge predicate → R."""
        return frozenset(self._graph.successors(predicate))

    def edges(self) -> set[tuple[str, str]]:
        """All edges of pg(Σ) as (source, target) pairs."""
        return set(self._graph.edges())

    def mutually_recursive(self, p: str, r: str) -> bool:
        """True iff some cycle of pg(Σ) contains both *p* and *r*.

        Note ``mutually_recursive(p, p)`` is True only if *p* lies on a
        cycle (e.g., a self-loop).
        """
        if p not in self._scc_of or r not in self._scc_of:
            return False
        same = self._scc_of[p] == self._scc_of[r]
        return same and self._scc_of[p] in self._cyclic

    def rec(self, predicate: str) -> frozenset[str]:
        """``rec(P)``: the predicates mutually recursive with *predicate*."""
        scc_id = self._scc_of.get(predicate)
        if scc_id is None or scc_id not in self._cyclic:
            return frozenset()
        return self._sccs[scc_id]

    def is_recursive_predicate(self, predicate: str) -> bool:
        """True iff *predicate* lies on some cycle of pg(Σ)."""
        scc_id = self._scc_of.get(predicate)
        return scc_id is not None and scc_id in self._cyclic

    def strongly_connected_components(self) -> list[frozenset[str]]:
        """The SCCs in (reverse) topological discovery order."""
        return list(self._sccs)

    def condensation_order(self) -> list[frozenset[str]]:
        """SCCs in topological order (sources first).

        Tarjan emits components in reverse topological order, so the
        condensation order is simply the reversal.
        """
        return list(reversed(self._sccs))

    def has_cycle(self) -> bool:
        """True iff pg(Σ) contains any cycle (the program is recursive)."""
        return bool(self._cyclic)
