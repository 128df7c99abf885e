"""A minimal directed graph: adjacency, SCCs, condensation, topological order.

Nodes are arbitrary hashable objects.  The implementation is
intentionally dependency-free and holds the one Tarjan in ``src/``:
the predicate graph (:mod:`repro.analysis.predicate_graph`), the
linter's dependency SCCs and the reachability indexes (Section 7,
future work (2)) all build one of these.
"""

from __future__ import annotations

from typing import (
    Collection, Dict, Hashable, Iterable, Iterator, List, Set, Tuple,
)

__all__ = ["DiGraph"]

Node = Hashable


def _ordered(nodes: Collection[Node]) -> List[Node]:
    """A deterministic visiting order: natural where the nodes compare
    (predicate names sort as strings), by ``repr`` where they do not."""
    try:
        return sorted(nodes)
    except TypeError:
        return sorted(nodes, key=repr)


class DiGraph:
    """A directed graph over hashable nodes with forward/backward adjacency."""

    def __init__(self) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._edge_count = 0

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Node, Node]]) -> "DiGraph":
        graph = DiGraph()
        for u, v in pairs:
            graph.add_edge(u, v)
        return graph

    def add_node(self, node: Node) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_edge(self, u: Node, v: Node) -> None:
        self.add_node(u)
        self.add_node(v)
        if v not in self._succ[u]:
            self._succ[u].add(v)
            self._pred[v].add(u)
            self._edge_count += 1

    # -- inspection -----------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        for u, targets in self._succ.items():
            for v in targets:
                yield (u, v)

    def successors(self, node: Node) -> Set[Node]:
        return self._succ.get(node, set())

    def predecessors(self, node: Node) -> Set[Node]:
        return self._pred.get(node, set())

    def out_degree(self, node: Node) -> int:
        return len(self._succ.get(node, ()))

    def in_degree(self, node: Node) -> int:
        return len(self._pred.get(node, ()))

    def reverse(self) -> "DiGraph":
        reversed_graph = DiGraph()
        for node in self.nodes():
            reversed_graph.add_node(node)
        for u, v in self.edges():
            reversed_graph.add_edge(v, u)
        return reversed_graph

    # -- traversal -------------------------------------------------------------

    def reachable_from(self, source: Node) -> Set[Node]:
        """All nodes reachable from *source* (including itself)."""
        if source not in self:
            return set()
        seen: Set[Node] = {source}
        stack: List[Node] = [source]
        while stack:
            node = stack.pop()
            for successor in self._succ[node]:
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return seen

    # -- strongly connected components -----------------------------------------

    def sccs(self) -> List[List[Node]]:
        """Strongly connected components (iterative Tarjan), in reverse
        topological order of the condensation (sinks first)."""
        index_of: Dict[Node, int] = {}
        lowlink: Dict[Node, int] = {}
        on_stack: Set[Node] = set()
        stack: List[Node] = []
        components: List[List[Node]] = []
        counter = [0]

        for root in list(self._succ):
            if root in index_of:
                continue
            # Iterative DFS with an explicit work stack of (node, iterator).
            work: List[Tuple[Node, Iterator[Node]]] = []
            index_of[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, iter(_ordered(self._succ[root]))))
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index_of:
                        index_of[successor] = lowlink[successor] = counter[0]
                        counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(_ordered(self._succ[successor])))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[node] = min(
                            lowlink[node], index_of[successor]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    component: List[Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
        return components

    def condensation(self) -> Tuple["DiGraph", Dict[Node, int]]:
        """The DAG of SCCs and the node → component-id mapping.

        Component ids follow a topological order: an edge always goes
        from a lower id to a higher id.
        """
        components = self.sccs()
        # Tarjan emits sinks first; reverse for topological numbering.
        components.reverse()
        component_of: Dict[Node, int] = {}
        for component_id, members in enumerate(components):
            for member in members:
                component_of[member] = component_id
        dag = DiGraph()
        for component_id in range(len(components)):
            dag.add_node(component_id)
        for u, v in self.edges():
            cu, cv = component_of[u], component_of[v]
            if cu != cv:
                dag.add_edge(cu, cv)
        return dag, component_of

    def topological_order(self) -> List[Node]:
        """Kahn's algorithm; raises ``ValueError`` on a cycle."""
        in_degree = {node: self.in_degree(node) for node in self.nodes()}
        ready = _ordered(
            [node for node, degree in in_degree.items() if degree == 0]
        )
        order: List[Node] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for successor in _ordered(self._succ[node]):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self._succ):
            raise ValueError("graph has a cycle; no topological order")
        return order
