"""Property tests for stratified negation.

Invariant: on random graphs, ``separated`` (defined with negation on
top of recursive reachability) is exactly the complement of the
transitive closure over the node domain.
"""

from hypothesis import given, settings, strategies as st

from repro.core.terms import Constant
from repro.datalog.negation import stratified_answers
from repro.lang.parser import parse_program, parse_query
from repro.analysis.digraph import DiGraph

NODES = 5

edge_lists = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
        lambda p: p[0] != p[1]
    ),
    min_size=0,
    max_size=10,
    unique=True,
)

RULES = """
    reach(X, Y)     :- edge(X, Y).
    reach(X, Z)     :- edge(X, Y), reach(Y, Z).
    separated(X, Y) :- node(X), node(Y), not reach(X, Y).
"""


def build_text(pairs) -> str:
    facts = [f"node(n{i})." for i in range(NODES)]
    facts += [f"edge(n{a}, n{b})." for a, b in pairs]
    return " ".join(facts) + RULES


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_separated_is_complement_of_reachability(pairs):
    program, database = parse_program(build_text(pairs))
    query = parse_query("q(X, Y) :- separated(X, Y).")
    answers = stratified_answers(query, database, program)

    graph = DiGraph.from_pairs(
        (Constant(f"n{a}"), Constant(f"n{b}")) for a, b in pairs
    )
    domain = [Constant(f"n{i}") for i in range(NODES)]
    expected = set()
    for x in domain:
        for y in domain:
            # strict reachability: a path of length ≥ 1
            reachable = x in graph and any(
                y == s or y in graph.reachable_from(s)
                for s in graph.successors(x)
            )
            if not reachable:
                expected.add((x, y))
    assert answers == expected


@given(edge_lists)
@settings(max_examples=30, deadline=None)
def test_partition_covers_all_pairs(pairs):
    # reach ∪ separated is the full node square; they are disjoint.
    program, database = parse_program(build_text(pairs))
    reach = stratified_answers(
        parse_query("q(X, Y) :- node(X), node(Y), reach(X, Y)."),
        database, program,
    )
    separated = stratified_answers(
        parse_query("q(X, Y) :- separated(X, Y)."),
        database, program,
    )
    assert reach & separated == set()
    assert len(reach | separated) == NODES * NODES
