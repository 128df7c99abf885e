"""Property-based tests for the reasoning engines against ground truth."""

import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import is_piecewise_linear, is_warded
from repro.api import compile_program
from repro.api.cache import FixpointCache
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.lang.parser import parse_query
from repro.reasoning.answers import stream_proof_tree_answers
from repro.reasoning.pwl_ward import decide_pwl_ward, prepare_pwl_ward
from repro.reasoning.ward import decide_ward, prepare_ward

from .strategies import CONSTANT_VALUES, databases, programs, queries


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=10))
    rng = random.Random(draw(st.integers(0, 10**6)))
    edges = set()
    for _ in range(m):
        edges.add((rng.randrange(n), rng.randrange(n)))
    return n, sorted(edges)


def reachable_pairs(n, edges):
    """Transitive closure by plain BFS: the ground truth."""
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
    closure = set()
    for start in range(n):
        seen = set()
        stack = list(adjacency.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        closure.update((start, node) for node in seen)
    return closure


def tc_program():
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    return Program([
        TGD((Atom("e", (x, y)),), (Atom("t", (x, y)),)),
        TGD((Atom("e", (x, y)), Atom("t", (y, z))), (Atom("t", (x, z)),)),
    ])


def doubling_program():
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    return Program([
        TGD((Atom("e", (x, y)),), (Atom("t", (x, y)),)),
        TGD((Atom("t", (x, y)), Atom("t", (y, z))), (Atom("t", (x, z)),)),
    ])


def database_of(edges):
    return Database(
        Atom("e", (Constant(f"n{u}"), Constant(f"n{v}"))) for u, v in edges
    )


@given(graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_pwl_engine_decides_reachability(graph, data):
    """The linear proof search agrees with BFS reachability."""
    n, edges = graph
    closure = reachable_pairs(n, edges)
    database = database_of(edges)
    program = tc_program()
    query = parse_query("q(X,Y) :- t(X,Y).")
    source = data.draw(st.integers(0, n - 1))
    target = data.draw(st.integers(0, n - 1))
    answer = (Constant(f"n{source}"), Constant(f"n{target}"))
    decision = decide_pwl_ward(query, answer, database, program)
    assert decision.accepted == ((source, target) in closure)


@given(graphs(), st.data())
@settings(max_examples=15, deadline=None)
def test_ward_engine_decides_reachability(graph, data):
    """The AND-OR search on the doubling rule agrees with BFS."""
    n, edges = graph
    closure = reachable_pairs(n, edges)
    database = database_of(edges)
    program = doubling_program()
    query = parse_query("q(X,Y) :- t(X,Y).")
    source = data.draw(st.integers(0, n - 1))
    target = data.draw(st.integers(0, n - 1))
    answer = (Constant(f"n{source}"), Constant(f"n{target}"))
    decision = decide_ward(query, answer, database, program)
    assert decision.accepted == ((source, target) in closure)


@given(graphs(), st.data())
@settings(max_examples=10, deadline=None)
def test_guided_equals_exhaustive_specialization(graph, data):
    """The guided successor generation is a complete optimization."""
    n, edges = graph
    database = database_of(edges)
    program = tc_program()
    query = parse_query("q(X,Y) :- t(X,Y).")
    source = data.draw(st.integers(0, n - 1))
    target = data.draw(st.integers(0, n - 1))
    answer = (Constant(f"n{source}"), Constant(f"n{target}"))
    guided = decide_pwl_ward(
        query, answer, database, program, specialization="guided"
    ).accepted
    exhaustive = decide_pwl_ward(
        query, answer, database, program, specialization="exhaustive"
    ).accepted
    assert guided == exhaustive


# -- the prepared decider changes nothing but time -----------------------

#: Caps, not claims: random rule sets can have large configuration
#: graphs, and canonicalising a wide configuration of look-alike atoms
#: is exponential.  A capped search is still deterministic, which is
#: all the prepared ≡ fresh comparisons below need.
CAP = 150
WIDTHS = st.sampled_from([2, 3, 4])

ENGINES = {
    "pwl": (prepare_pwl_ward, decide_pwl_ward),
    "ward": (prepare_ward, decide_ward),
}


def in_class(method, program):
    return is_warded(program) and (
        method == "ward" or is_piecewise_linear(program)
    )


@given(
    st.sampled_from(sorted(ENGINES)), programs(), databases(), queries(),
    WIDTHS, st.booleans(), st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_prepared_decider_equals_a_fresh_decision(
    method, program, database, query, width, use_oracle, rng
):
    """``prepare(…)(c̄)`` equals ``decide_x(q, c̄, D, Σ)`` on the verdict,
    the width bound and every ``SearchStats`` field, for every candidate
    and in any order: nothing is carried from one candidate to the next.
    (Without the oracle far more candidates get past the initial state.)"""
    assume(in_class(method, program))
    prepare, decide = ENGINES[method]
    constants = [Constant(value) for value in CONSTANT_VALUES]
    distinct = list(dict.fromkeys(query.output))  # X may be output twice
    candidates = [
        tuple(dict(zip(distinct, combo))[v] for v in query.output)
        for combo in itertools.product(constants, repeat=len(distinct))
    ]

    def same(got, want):
        assert got.accepted == want.accepted
        assert got.width_bound == want.width_bound
        assert got.stats == want.stats  # a dataclass: every field
        assert got.stats is not want.stats

    options = dict(max_states=CAP, width_bound=width, use_oracle=use_oracle)
    fresh = {
        c: decide(query, c, database, program, **options) for c in candidates
    }
    prepared = prepare(query, database, program, **options)
    order = candidates * 2  # every candidate twice, interleaved at random
    rng.shuffle(order)
    for candidate in order:
        same(prepared(candidate), fresh[candidate])
    # The default bound f(q, Σ) is the prepared part: one expansion each.
    by_default = prepare(query, database, program, max_states=1)
    for candidate in candidates:
        same(
            by_default(candidate),
            decide(query, candidate, database, program, max_states=1),
        )


@given(
    st.sampled_from(sorted(ENGINES)), programs(), databases(), queries(),
    WIDTHS,
)
@settings(max_examples=40, deadline=None)
def test_cached_probe_and_abstraction_stream_the_same_answers(
    method, program, database, query, width
):
    """Handing the stream a cache's probe and abstraction changes no
    element of it, nor their order."""
    assume(in_class(method, program))
    compiled = compile_program(program)
    cache = FixpointCache(database)
    options = dict(
        method=method, probe_depth=2, probe_atoms=300,
        max_states=CAP, width_bound=width,
    )
    plain = list(stream_proof_tree_answers(query, database, program, **options))
    handed = list(stream_proof_tree_answers(
        query, database, program,
        abstraction=cache.abstraction_for(compiled),
        probe=cache.probe_for(compiled, 2, 300),
        **options,
    ))
    assert handed == plain
