"""Property tests for the Dyn-FO reachability maintenance.

Invariant: after any interleaved stream of insertions and deletions,
the maintained relation equals the reflexive-transitive closure of the
surviving edge set.
"""

from hypothesis import given, settings, strategies as st

from repro.dynfo.reachability import DynamicReachability
from repro.analysis.digraph import DiGraph

NODES = 6

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "insert", "delete"]),
        st.integers(0, NODES - 1),
        st.integers(0, NODES - 1),
    ).filter(lambda op: op[1] != op[2]),
    min_size=1,
    max_size=20,
)


@given(operations)
@settings(max_examples=60, deadline=None)
def test_maintained_closure_is_exact(ops):
    index = DynamicReachability()
    edges = set()
    for action, u, v in ops:
        if action == "insert":
            edges.add((u, v))
            index.insert_edge(u, v)
        else:
            edges.discard((u, v))
            index.delete_edge(u, v)

    graph = DiGraph.from_pairs(edges)
    for node in index.nodes():
        graph.add_node(node)
    for a in index.nodes():
        for b in index.nodes():
            expected = b in graph.reachable_from(a) if a in graph else a == b
            assert index.reaches(a, b) == expected, (a, b)


@given(operations)
@settings(max_examples=40, deadline=None)
def test_strict_reachability_requires_an_edge_path(ops):
    index = DynamicReachability()
    edges = set()
    for action, u, v in ops:
        if action == "insert":
            edges.add((u, v))
            index.insert_edge(u, v)
        else:
            edges.discard((u, v))
            index.delete_edge(u, v)
    # reaches_strict(a, a) holds iff a lies on a cycle.
    graph = DiGraph.from_pairs(edges)
    for a in index.nodes():
        on_cycle = a in graph and any(
            a in graph.reachable_from(successor)
            for successor in graph.successors(a)
        )
        assert index.reaches_strict(a, a) == on_cycle


@given(operations)
@settings(max_examples=40, deadline=None)
def test_insertion_monotonicity(ops):
    # Without deletions, the closure only grows.
    index = DynamicReachability()
    previous = 0
    for action, u, v in ops:
        if action != "insert":
            continue
        index.insert_edge(u, v)
        current = index.closure_size()
        assert current >= previous
        previous = current
