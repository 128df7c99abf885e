"""Unit tests for the Dyn-FO incremental reachability relation."""

from repro.dynfo.reachability import DynamicReachability, IncrementalReachability


class TestIncrementalInsertions:
    def test_single_edge(self):
        index = IncrementalReachability()
        added = index.insert_edge("a", "b")
        assert added == 1
        assert index.reaches("a", "b")
        assert not index.reaches("b", "a")
        assert index.reaches("a", "a")  # reflexive

    def test_chain_composes(self):
        index = IncrementalReachability()
        index.insert_edge("a", "b")
        index.insert_edge("b", "c")
        assert index.reaches("a", "c")

    def test_joining_edge_adds_cross_pairs(self):
        # a→b and c→d exist; inserting b→c must add a⇝c, a⇝d, b⇝d, b⇝c.
        index = IncrementalReachability()
        index.insert_edge("a", "b")
        index.insert_edge("c", "d")
        added = index.insert_edge("b", "c")
        assert added == 4
        assert index.reaches("a", "d")

    def test_redundant_edge_is_noop(self):
        index = IncrementalReachability()
        index.insert_edge("a", "b")
        index.insert_edge("b", "c")
        added = index.insert_edge("a", "c")  # already implied
        assert added == 0
        assert index.stats.noop_insertions == 1

    def test_cycle(self):
        index = IncrementalReachability()
        index.insert_edge("a", "b")
        index.insert_edge("b", "a")
        assert index.reaches("a", "a") and index.reaches("b", "a")
        assert index.reaches_strict("a", "a")  # via the cycle

    def test_strict_vs_reflexive(self):
        index = IncrementalReachability()
        index.insert_edge("a", "b")
        assert index.reaches("a", "a")
        assert not index.reaches_strict("a", "a")  # no cycle through a
        assert index.reaches_strict("a", "b")

    def test_closure_size_counts_pairs(self):
        index = IncrementalReachability()
        index.insert_edge("a", "b")
        index.insert_edge("b", "c")
        # reflexive 3 + (a,b), (b,c), (a,c)
        assert index.closure_size() == 6

    def test_matches_brute_force_on_random_stream(self):
        import random

        rng = random.Random(11)
        index = IncrementalReachability()
        edges = set()
        for _ in range(40):
            u, v = rng.randrange(8), rng.randrange(8)
            if u == v:
                continue
            edges.add((u, v))
            index.insert_edge(u, v)
        # Brute-force closure from the edge set.
        from repro.analysis.digraph import DiGraph

        g = DiGraph.from_pairs(edges)
        for u in range(8):
            for v in range(8):
                if u in g:
                    assert index.reaches(u, v) == (v in g.reachable_from(u))


class TestDynamicDeletions:
    def test_delete_breaks_path(self):
        index = DynamicReachability()
        index.insert_edge("a", "b")
        index.insert_edge("b", "c")
        index.delete_edge("a", "b")
        assert not index.reaches("a", "c")
        assert index.reaches("b", "c")

    def test_delete_keeps_alternative_path(self):
        index = DynamicReachability()
        index.insert_edge("a", "b")
        index.insert_edge("b", "d")
        index.insert_edge("a", "c")
        index.insert_edge("c", "d")
        index.delete_edge("a", "b")
        assert index.reaches("a", "d")  # via c

    def test_delete_missing_edge_is_noop(self):
        index = DynamicReachability()
        index.insert_edge("a", "b")
        index.delete_edge("x", "y")
        assert index.stats.deletions == 0
        assert index.reaches("a", "b")

    def test_recompute_counter(self):
        index = DynamicReachability()
        index.insert_edge("a", "b")
        index.delete_edge("a", "b")
        assert index.stats.recomputes == 1
        assert not index.reaches("a", "b")

    def test_insert_after_delete(self):
        index = DynamicReachability()
        index.insert_edge("a", "b")
        index.delete_edge("a", "b")
        index.insert_edge("a", "b")
        assert index.reaches("a", "b")


class TestWorkCounters:
    def test_fo_rule_work_is_ancestors_times_descendants(self):
        index = IncrementalReachability()
        index.insert_edge("a", "b")
        index.insert_edge("c", "d")
        before = index.stats.pairs_examined
        index.insert_edge("b", "c")
        # ancestors of b = {a, b}; descendants of c = {c, d} → 4 pairs.
        assert index.stats.pairs_examined - before == 4
