"""Cross-engine property tests: every evaluation path computes the same
answers on random transitive-closure instances.

The paper's machinery gives many independent roads to cert(q, D, Σ) on
a WARD ∩ PWL (and full-Datalog) workload: semi-naive evaluation, the
chase, the linear proof search (either frontier strategy), the
stratified evaluator, the Lemma 6.4 rewriting, and the Dyn-FO
incremental view.  Random graphs drive them all against the
semi-naive reference.
"""

from hypothesis import given, settings, strategies as st

from repro.chase import chase
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.datalog.seminaive import datalog_answers, seminaive
from repro.dynfo import IncrementalReasoner
from repro.lang.parser import parse_program, parse_query
from repro.reasoning import decide_pwl_ward

from ..helpers import by_layer

NODES = 6

edge_lists = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
        lambda p: p[0] != p[1]
    ),
    min_size=1,
    max_size=12,
    unique=True,
)


def tc_program():
    program, _ = parse_program("""
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)
    return program


def build_database(pairs) -> Database:
    database = Database()
    for a, b in pairs:
        database.add(Atom("e", (Constant(f"n{a}"), Constant(f"n{b}"))))
    return database


QUERY = parse_query("q(X,Y) :- t(X,Y).")
PROGRAM = tc_program()


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_chase_matches_seminaive(pairs):
    database = build_database(pairs)
    reference = datalog_answers(QUERY, database, PROGRAM)
    result = chase(database, PROGRAM, max_atoms=5000)
    assert result.saturated
    assert result.evaluate(QUERY) == reference


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_stratified_matches_global(pairs):
    database = build_database(pairs)
    materialized = by_layer(database, PROGRAM)[-1]
    streaming = seminaive(database, PROGRAM)
    assert materialized.evaluate(QUERY) == streaming.evaluate(QUERY)


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_incremental_view_matches_seminaive(pairs):
    database = build_database(pairs)
    reference = datalog_answers(QUERY, database, PROGRAM)
    reasoner = IncrementalReasoner(PROGRAM, database)
    assert reasoner.answers() == reference


@given(edge_lists, st.integers(0, NODES - 1), st.integers(0, NODES - 1))
@settings(max_examples=25, deadline=None)
def test_proof_search_strategies_agree(pairs, a, b):
    database = build_database(pairs)
    answer = (Constant(f"n{a}"), Constant(f"n{b}"))
    reference = answer in datalog_answers(QUERY, database, PROGRAM)
    best = decide_pwl_ward(
        QUERY, answer, database, PROGRAM, strategy="bestfirst"
    )
    assert best.accepted == reference
    bfs = decide_pwl_ward(
        QUERY, answer, database, PROGRAM, strategy="bfs", width_bound=3
    )
    assert bfs.accepted == reference


@given(edge_lists)
@settings(max_examples=15, deadline=None)
def test_seminaive_statistics_sane(pairs):
    database = build_database(pairs)
    result = seminaive(database, PROGRAM)
    assert result.derived == len(result.instance) - len(database)
    assert result.rounds >= 1
    assert result.considered >= result.derived
