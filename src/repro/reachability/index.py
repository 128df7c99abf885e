"""Reachability indexes (Section 7, future work (2)).

Three classic schemes behind one interface, chosen because the paper
cites exactly these lines of work:

* :class:`DFSReachability` — no index at all; every query is a fresh
  graph search.  The baseline every index must beat on query time.
* :class:`IntervalIndex` — GRAIL-style randomized interval labeling
  [Yildirim, Chaoji, Zaki, PVLDB 2010]: *k* random depth-first
  traversals of the SCC condensation assign each node an interval
  ``[low, post]`` such that u ⇝ v implies interval(v) ⊆ interval(u) in
  every labeling.  A failed containment is a definitive **no** in O(k);
  containment in all labelings is verified by a label-pruned DFS, so
  answers are exact.
* :class:`TwoHopIndex` — 2-hop labeling [Cohen, Halperin, Kaplan,
  Zwick, SIAM J. Comput. 2003] built with pruned landmark BFS
  [Akiba, Iwata, Yoshida, SIGMOD 2013]: each node stores the landmarks
  that reach it (``label_in``) and that it reaches (``label_out``);
  u ⇝ v iff the labels intersect.  Exact, query time O(|labels|).

Every index records build/query counters so the E9 benchmark can report
the classic index trade-off (build work + label size vs. query work).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..analysis.digraph import DiGraph

__all__ = [
    "ReachabilityIndex",
    "DFSReachability",
    "IntervalIndex",
    "TwoHopIndex",
]

Node = Hashable


@dataclass
class IndexStats:
    """Build/query counters shared by all indexes."""

    build_visits: int = 0        # node visits during construction
    label_entries: int = 0       # total stored label entries
    queries: int = 0
    query_visits: int = 0        # node visits during queries (fallbacks)
    negative_cuts: int = 0       # queries settled by a label check alone


class ReachabilityIndex:
    """Common interface: ``reaches(u, v)`` — is there a path u ⇝ v?

    Reachability here is reflexive (every node reaches itself), matching
    the convention of the indexing literature; callers that need strict
    (length ≥ 1) reachability check an edge-successor explicitly.
    """

    def __init__(self, graph: DiGraph):
        self.graph = graph
        self.stats = IndexStats()

    def reaches(self, u: Node, v: Node) -> bool:  # pragma: no cover
        raise NotImplementedError


class DFSReachability(ReachabilityIndex):
    """The no-index baseline: one graph search per query."""

    def reaches(self, u: Node, v: Node) -> bool:
        self.stats.queries += 1
        if u not in self.graph or v not in self.graph:
            return False
        if u == v:
            return True
        seen: Set[Node] = {u}
        stack: List[Node] = [u]
        while stack:
            node = stack.pop()
            self.stats.query_visits += 1
            for successor in self.graph.successors(node):
                if successor == v:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False


class IntervalIndex(ReachabilityIndex):
    """GRAIL: k randomized post-order interval labelings + verified DFS.

    Intervals live on the SCC condensation, so cycles are handled for
    free: two nodes of one SCC trivially reach each other.
    """

    def __init__(self, graph: DiGraph, k: int = 3, seed: int = 2019):
        super().__init__(graph)
        self.k = k
        self._dag, self._component_of = graph.condensation()
        # intervals[i][c] = (low, post) for component c in labeling i.
        self._intervals: List[Dict[int, Tuple[int, int]]] = []
        rng = random.Random(seed)
        for _ in range(k):
            self._intervals.append(self._one_labeling(rng))
            self.stats.label_entries += len(self._dag)

    def _one_labeling(self, rng: random.Random) -> Dict[int, Tuple[int, int]]:
        """One randomized post-order traversal of the condensation DAG.

        ``post`` is the post-order rank; ``low`` is the minimum post
        rank in the subtree *plus* the already-labeled children — the
        GRAIL min-rank propagation that makes intervals sound for DAGs
        (interval(v) ⊆ interval(u) is necessary for u ⇝ v).
        """
        post: Dict[int, int] = {}
        low: Dict[int, int] = {}
        counter = [0]
        roots = [
            node for node in self._dag.nodes() if self._dag.in_degree(node) == 0
        ]
        rng.shuffle(roots)

        visited: Set[int] = set()

        def visit(start: int) -> None:
            stack: List[Tuple[int, Optional[List[int]]]] = [(start, None)]
            while stack:
                node, children = stack.pop()
                if children is None:
                    if node in visited:
                        continue
                    visited.add(node)
                    self.stats.build_visits += 1
                    ordered = list(self._dag.successors(node))
                    rng.shuffle(ordered)
                    stack.append((node, ordered))
                    for child in reversed(ordered):
                        if child not in visited:
                            stack.append((child, None))
                else:
                    counter[0] += 1
                    post[node] = counter[0]
                    child_lows = [
                        low[child] for child in children if child in low
                    ]
                    low[node] = min(child_lows + [post[node]])

        for root in roots:
            visit(root)
        for node in self._dag.nodes():  # disconnected pieces
            if node not in visited:
                visit(node)
        return {
            node: (low[node], post[node]) for node in self._dag.nodes()
        }

    def _label_admits(self, cu: int, cv: int) -> bool:
        """True unless some labeling refutes cu ⇝ cv."""
        for intervals in self._intervals:
            low_u, post_u = intervals[cu]
            low_v, post_v = intervals[cv]
            if not (low_u <= low_v and post_v <= post_u):
                return False
        return True

    def reaches(self, u: Node, v: Node) -> bool:
        self.stats.queries += 1
        if u not in self.graph or v not in self.graph:
            return False
        cu, cv = self._component_of[u], self._component_of[v]
        if cu == cv:
            return True
        if not self._label_admits(cu, cv):
            self.stats.negative_cuts += 1
            return False
        # Verified DFS on the condensation, pruned by the labels.
        seen: Set[int] = {cu}
        stack: List[int] = [cu]
        while stack:
            component = stack.pop()
            self.stats.query_visits += 1
            for successor in self._dag.successors(component):
                if successor == cv:
                    return True
                if successor not in seen and self._label_admits(successor, cv):
                    seen.add(successor)
                    stack.append(successor)
        return False


class TwoHopIndex(ReachabilityIndex):
    """2-hop labeling via pruned landmark BFS — exact, label-only queries."""

    def __init__(self, graph: DiGraph):
        super().__init__(graph)
        # label_in[v]: landmarks that reach v; label_out[v]: landmarks
        # v reaches.  Landmarks are processed by descending degree so
        # high-coverage hubs prune the most.
        self.label_in: Dict[Node, Set[Node]] = {
            node: set() for node in graph.nodes()
        }
        self.label_out: Dict[Node, Set[Node]] = {
            node: set() for node in graph.nodes()
        }
        order = sorted(
            graph.nodes(),
            key=lambda n: (-(graph.out_degree(n) + graph.in_degree(n)),
                           repr(n)),
        )
        for landmark in order:
            self._pruned_bfs(landmark, forward=True)
            self._pruned_bfs(landmark, forward=False)
        self.stats.label_entries = sum(
            len(s) for s in self.label_in.values()
        ) + sum(len(s) for s in self.label_out.values())

    def _covered(self, u: Node, v: Node) -> bool:
        """Is u ⇝ v already answerable from the labels built so far?"""
        if u == v:
            return True
        out_u = self.label_out[u] | {u}
        in_v = self.label_in[v] | {v}
        return not out_u.isdisjoint(in_v)

    def _pruned_bfs(self, landmark: Node, *, forward: bool) -> None:
        frontier: List[Node] = [landmark]
        seen: Set[Node] = {landmark}
        while frontier:
            next_frontier: List[Node] = []
            for node in frontier:
                self.stats.build_visits += 1
                neighbors = (
                    self.graph.successors(node)
                    if forward
                    else self.graph.predecessors(node)
                )
                for neighbor in neighbors:
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    if forward:
                        # landmark ⇝ neighbor; prune if already covered.
                        if self._covered(landmark, neighbor):
                            continue
                        self.label_in[neighbor].add(landmark)
                    else:
                        if self._covered(neighbor, landmark):
                            continue
                        self.label_out[neighbor].add(landmark)
                    next_frontier.append(neighbor)
            frontier = next_frontier

    def reaches(self, u: Node, v: Node) -> bool:
        self.stats.queries += 1
        if u not in self.graph or v not in self.graph:
            return False
        return self._covered(u, v)
