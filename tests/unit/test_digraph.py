"""Unit tests for the dependency-free directed graph."""

import pytest

from repro.analysis.digraph import DiGraph


def diamond() -> DiGraph:
    return DiGraph.from_pairs([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestBasics:
    def test_nodes_and_edges(self):
        g = diamond()
        assert len(g) == 4
        assert g.edge_count == 4
        assert set(g.nodes()) == {"a", "b", "c", "d"}
        assert ("a", "b") in set(g.edges())

    def test_duplicate_edges_ignored(self):
        g = DiGraph.from_pairs([("a", "b"), ("a", "b")])
        assert g.edge_count == 1

    def test_adjacency(self):
        g = diamond()
        assert g.successors("a") == {"b", "c"}
        assert g.predecessors("d") == {"b", "c"}
        assert g.out_degree("a") == 2
        assert g.in_degree("a") == 0

    def test_isolated_node(self):
        g = diamond()
        g.add_node("z")
        assert "z" in g
        assert g.successors("z") == set()

    def test_reverse(self):
        g = diamond().reverse()
        assert g.successors("d") == {"b", "c"}
        assert g.successors("a") == set()


class TestTraversal:
    def test_reachable_from(self):
        g = diamond()
        assert g.reachable_from("a") == {"a", "b", "c", "d"}
        assert g.reachable_from("b") == {"b", "d"}
        assert g.reachable_from("missing") == set()

    def test_reachable_handles_cycles(self):
        g = DiGraph.from_pairs([("a", "b"), ("b", "a"), ("b", "c")])
        assert g.reachable_from("a") == {"a", "b", "c"}


class TestSCC:
    def test_dag_gives_singletons(self):
        components = diamond().sccs()
        assert sorted(len(c) for c in components) == [1, 1, 1, 1]

    def test_cycle_is_one_component(self):
        g = DiGraph.from_pairs(
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        )
        components = {frozenset(c) for c in g.sccs()}
        assert frozenset({"a", "b", "c"}) in components
        assert frozenset({"d"}) in components

    def test_condensation_is_topological(self):
        g = DiGraph.from_pairs(
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")]
        )
        dag, component_of = g.condensation()
        assert len(dag) == 2
        assert component_of["a"] == component_of["b"]
        assert component_of["c"] == component_of["d"]
        # Edges go from lower to higher component id.
        for u, v in dag.edges():
            assert u < v

    def test_condensation_of_dag_preserves_edges(self):
        dag, component_of = diamond().condensation()
        assert len(dag) == 4
        assert dag.edge_count == 4


class TestTopologicalOrder:
    def test_diamond_order(self):
        order = diamond().topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_cycle_raises(self):
        g = DiGraph.from_pairs([("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()
