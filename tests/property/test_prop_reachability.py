"""Property tests: all reachability indexes agree with brute force."""

from hypothesis import given, settings, strategies as st

from repro.analysis.digraph import DiGraph
from repro.reachability.index import (
    DFSReachability,
    IntervalIndex,
    TwoHopIndex,
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
        lambda p: p[0] != p[1]
    ),
    min_size=0,
    max_size=25,
)


def build(pairs) -> DiGraph:
    g = DiGraph.from_pairs(pairs)
    for node in range(10):
        g.add_node(node)
    return g


@given(edge_lists, st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=120, deadline=None)
def test_indexes_agree_with_brute_force(pairs, u, v):
    g = build(pairs)
    truth = v in g.reachable_from(u)
    assert DFSReachability(g).reaches(u, v) == truth
    assert IntervalIndex(g, k=2).reaches(u, v) == truth
    assert TwoHopIndex(g).reaches(u, v) == truth


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_condensation_is_acyclic_and_total(pairs):
    g = build(pairs)
    dag, component_of = g.condensation()
    # Every node is assigned to exactly one component.
    assert set(component_of) == set(g.nodes())
    # The condensation has a topological order (i.e., is acyclic).
    order = dag.topological_order()
    assert len(order) == len(dag)
    # Edges respect the numbering invariant.
    for a, b in dag.edges():
        assert a < b


@given(edge_lists, st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_reachability_is_transitive(pairs, u, v):
    g = build(pairs)
    index = TwoHopIndex(g)
    if index.reaches(u, v):
        for w in range(10):
            if index.reaches(v, w):
                assert index.reaches(u, w)
