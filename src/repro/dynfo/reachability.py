"""Incrementally maintained reachability (the Dyn-FO ingredient).

:class:`IncrementalReachability` maintains the reflexive-transitive
closure of a growing edge set.  The auxiliary relation is the closure
itself, and the per-insertion update is the classic quantifier-free
first-order rule of Patnaik & Immerman:

    REACH'(a, b)  ≡  REACH(a, b) ∨ (REACH(a, u) ∧ REACH(v, b))

for the inserted edge (u, v).  Evaluating this formula is one nested
loop over the maintained sets — no recursion, no fixpoint — which is
precisely what "reachability testing can be done in FO, and thus in
SQL" means: the update is expressible as a single SQL ``INSERT ...
SELECT`` over the auxiliary table.  Queries are O(1) lookups.

The rule is correct on arbitrary digraphs (not only DAGs): any path
using the new edge decomposes at its first and last use into old-graph
segments a ⇝ u and v ⇝ b.

:class:`DynamicReachability` adds deletions.  Fully FO deletion for
general digraphs is the Datta-Kulkarni-Mukherjee-Schwentick-Zeume 2015
result, whose matrix-rank machinery is far outside this reproduction's
scope; the deletion path here recomputes the closure from the
maintained edge set (**[SIM]**; ``docs/ARCHITECTURE.md`` "Why each
engine, store and package exists", the ``dynfo`` row) so the
*interface* and the insertion fast path stay faithful while answers
remain exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Set, Tuple

__all__ = ["IncrementalReachability", "DynamicReachability"]

Node = Hashable


@dataclass
class UpdateStats:
    """Work counters: the E10 benchmark's observable."""

    insertions: int = 0
    noop_insertions: int = 0         # edge already implied: zero new pairs
    pairs_examined: int = 0          # (a, b) candidates of the FO rule
    pairs_added: int = 0             # new closure entries
    deletions: int = 0
    recomputes: int = 0


class IncrementalReachability:
    """Reflexive-transitive closure under edge insertions (Dyn-FO rule)."""

    def __init__(self) -> None:
        # forward[u] = {v : u ⇝ v};  backward[v] = {u : u ⇝ v}.
        self._forward: Dict[Node, Set[Node]] = {}
        self._backward: Dict[Node, Set[Node]] = {}
        self._successors: Dict[Node, Set[Node]] = {}
        self.stats = UpdateStats()

    # -- membership -----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node not in self._forward:
            self._forward[node] = {node}
            self._backward[node] = {node}
            self._successors[node] = set()

    def __contains__(self, node: Node) -> bool:
        return node in self._forward

    def nodes(self) -> Iterable[Node]:
        return iter(self._forward)

    def closure_size(self) -> int:
        """Number of maintained (a, b) closure pairs (incl. reflexive)."""
        return sum(len(targets) for targets in self._forward.values())

    # -- updates ---------------------------------------------------------------

    def insert_edge(self, u: Node, v: Node) -> int:
        """Insert (u, v); returns the number of new closure pairs.

        One evaluation of the FO update rule: the new pairs are exactly
        {(a, b) : a ⇝ u and v ⇝ b and not yet a ⇝ b}.
        """
        self.add_node(u)
        self.add_node(v)
        self._successors[u].add(v)
        self.stats.insertions += 1
        if v in self._forward[u]:
            self.stats.noop_insertions += 1
            return 0
        added = 0
        ancestors = tuple(self._backward[u])
        descendants = tuple(self._forward[v])
        for a in ancestors:
            forward_a = self._forward[a]
            for b in descendants:
                self.stats.pairs_examined += 1
                if b not in forward_a:
                    forward_a.add(b)
                    self._backward[b].add(a)
                    added += 1
        self.stats.pairs_added += added
        return added

    # -- queries ----------------------------------------------------------------

    def reaches(self, a: Node, b: Node) -> bool:
        """Reflexive reachability a ⇝ b — an O(1) lookup."""
        return b in self._forward.get(a, ())

    def reaches_strict(self, a: Node, b: Node) -> bool:
        """Path of length ≥ 1 (what a non-reflexive closure rule derives)."""
        return any(
            self.reaches(successor, b)
            for successor in self._successors.get(a, ())
        )

    def descendants(self, a: Node) -> Set[Node]:
        return set(self._forward.get(a, ()))


class DynamicReachability(IncrementalReachability):
    """Insertions via the FO rule; deletions via recompute (**[SIM]**)."""

    def __init__(self) -> None:
        super().__init__()
        self._edges: Set[Tuple[Node, Node]] = set()

    def insert_edge(self, u: Node, v: Node) -> int:
        self._edges.add((u, v))
        return super().insert_edge(u, v)

    def delete_edge(self, u: Node, v: Node) -> None:
        """Remove (u, v) and restore the exact closure.

        Deleting can only shrink the closure, and which pairs survive
        depends on alternative paths — the genuinely hard direction of
        Dyn-FO.  This implementation recomputes from the maintained
        edge set; the stats record every recompute so benchmarks can
        price the asymmetry.
        """
        if (u, v) not in self._edges:
            return
        self._edges.discard((u, v))
        self.stats.deletions += 1
        self._recompute()

    def _recompute(self) -> None:
        self.stats.recomputes += 1
        nodes = list(self._forward)
        self._forward = {}
        self._backward = {}
        self._successors = {}
        for node in nodes:
            self.add_node(node)
        suspended = self.stats
        # Replay insertions without polluting the user-visible counters.
        self.stats = UpdateStats()
        for u, v in sorted(self._edges, key=repr):
            super().insert_edge(u, v)
        self.stats = suspended
