"""Unit tests for the reachability indexes (Section 7, future work (2))."""

import random

import pytest

from repro.analysis.digraph import DiGraph
from repro.reachability.index import (
    DFSReachability,
    IntervalIndex,
    TwoHopIndex,
)

INDEX_CLASSES = (DFSReachability, IntervalIndex, TwoHopIndex)


def chain(n: int) -> DiGraph:
    return DiGraph.from_pairs([(i, i + 1) for i in range(n - 1)])


def random_graph(nodes: int, edges: int, seed: int) -> DiGraph:
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            pairs.add((a, b))
    g = DiGraph.from_pairs(pairs)
    for i in range(nodes):
        g.add_node(i)
    return g


def brute_force(g: DiGraph, u, v) -> bool:
    return v in g.reachable_from(u)


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
class TestAllIndexes:
    def test_chain(self, index_class):
        g = chain(6)
        index = index_class(g)
        assert index.reaches(0, 5)
        assert index.reaches(2, 4)
        assert not index.reaches(5, 0)
        assert index.reaches(3, 3)  # reflexive

    def test_missing_nodes(self, index_class):
        index = index_class(chain(3))
        assert not index.reaches(0, "missing")
        assert not index.reaches("missing", 0)

    def test_cycle(self, index_class):
        g = DiGraph.from_pairs([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        index = index_class(g)
        assert index.reaches("a", "a")
        assert index.reaches("b", "a")
        assert index.reaches("a", "d")
        assert not index.reaches("d", "a")

    def test_exhaustive_agreement_random(self, index_class):
        g = random_graph(14, 30, seed=7)
        index = index_class(g)
        for u in range(14):
            for v in range(14):
                assert index.reaches(u, v) == brute_force(g, u, v), (u, v)

    def test_disconnected_components(self, index_class):
        g = DiGraph.from_pairs([(0, 1), (2, 3)])
        index = index_class(g)
        assert index.reaches(0, 1)
        assert not index.reaches(0, 3)
        assert not index.reaches(1, 2)


class TestGrailSpecifics:
    def test_negative_cut_counter(self):
        # A long chain: most non-reachable pairs should be cut by the
        # interval labels without any DFS.
        g = chain(20)
        index = IntervalIndex(g, k=3)
        for u in range(19, 0, -1):
            assert not index.reaches(u, u - 1)
        assert index.stats.negative_cuts > 0

    def test_more_labelings_reduce_fallbacks(self):
        g = random_graph(25, 60, seed=3)
        weak = IntervalIndex(g, k=1, seed=1)
        strong = IntervalIndex(g, k=5, seed=1)
        pairs = [(u, v) for u in range(0, 25, 2) for v in range(1, 25, 3)]
        for index in (weak, strong):
            for u, v in pairs:
                index.reaches(u, v)
        assert strong.stats.query_visits <= weak.stats.query_visits


class TestTwoHopSpecifics:
    def test_labels_are_populated(self):
        index = TwoHopIndex(chain(6))
        assert index.stats.label_entries > 0

    def test_query_uses_no_traversal(self):
        index = TwoHopIndex(chain(10))
        index.reaches(0, 9)
        index.reaches(9, 0)
        assert index.stats.query_visits == 0

    def test_hub_pruning_keeps_labels_small(self):
        # A star through a hub: labels should stay near-linear, far
        # below the quadratic all-pairs closure.
        pairs = [(f"in{i}", "hub") for i in range(10)]
        pairs += [("hub", f"out{i}") for i in range(10)]
        g = DiGraph.from_pairs(pairs)
        index = TwoHopIndex(g)
        assert index.reaches("in3", "out7")
        assert not index.reaches("out7", "in3")
        assert index.stats.label_entries <= 3 * len(g)
