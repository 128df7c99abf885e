"""Property tests: the session layer is observationally equivalent to
the legacy eager entry points.

The acceptance bar of the ``repro.api`` redesign: for random warded
programs and databases, ``Session.query(...)`` — a lazy
:class:`~repro.api.stream.AnswerStream` — must materialize exactly the
set the legacy eager facades computed, for every storage backend, both
on a cold session and through the session's cross-query caches, and
prefix pulls must never disagree with the final set (soundness of the
stream at every prefix).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, certain_answers, compile_program
from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import datalog_answers, seminaive
from repro.lang.parser import parse_query
from repro.storage import BACKENDS

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

QUERIES = (
    "q(X,Y) :- t(X,Y).",
    "q(X) :- t(X,Y).",
    "q() :- t(X,Y).",
)


@st.composite
def warded_instances(draw):
    """A random warded program plus database (mirrors the storage suite)."""
    n = draw(st.integers(min_value=2, max_value=5))
    edge_count = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(0, 10**6)))
    facts = {
        Atom("e", (Constant(f"n{rng.randrange(n)}"),
                   Constant(f"n{rng.randrange(n)}")))
        for _ in range(edge_count)
    }
    rules = [TGD((Atom("e", (X, Y)),), (Atom("t", (X, Y)),))]
    if draw(st.booleans()):
        rules.append(
            TGD((Atom("e", (X, Y)), Atom("t", (Y, Z))), (Atom("t", (X, Z)),))
        )
    else:
        rules.append(
            TGD((Atom("t", (X, Y)), Atom("t", (Y, Z))), (Atom("t", (X, Z)),))
        )
    if draw(st.booleans()):
        rules.append(TGD((Atom("t", (X, Y)),), (Atom("w", (Y, Z)),)))
    return Database(facts), Program(rules, name="prop")


@settings(max_examples=30, deadline=None)
@given(warded_instances(), st.sampled_from(QUERIES))
def test_stream_equals_legacy_eager_across_backends(data, query_text):
    database, program = data
    query = parse_query(query_text)
    legacy = certain_answers(query, database, program)
    for backend in BACKENDS:
        session = Session(store=backend)
        session.compile(program)
        session.add_facts(database)
        stream = session.query(query)
        assert set(stream.to_set()) == legacy, backend
        # Replays and cache hits agree with the cold run.
        again = session.query(query)
        assert set(again.to_set()) == legacy, backend


@settings(max_examples=30, deadline=None)
@given(warded_instances(), st.sampled_from(QUERIES))
def test_stream_prefix_is_sound(data, query_text):
    database, program = data
    query = parse_query(query_text)
    session = Session()
    session.compile(program)
    session.add_facts(database)
    stream = session.query(query)
    prefix = stream.first(2)
    full = set(stream.to_set())
    assert set(prefix) <= full
    assert full == certain_answers(query, database, program)


@settings(max_examples=25, deadline=None)
@given(warded_instances())
def test_datalog_stream_equals_fixpoint_evaluation(data):
    """The incremental (delta-evaluated) datalog stream equals eager
    evaluation over the final fixpoint, per backend."""
    database, program = data
    full_rules = Program(
        [tgd for tgd in program if tgd.is_full()], name="full"
    )
    query = parse_query("q(X,Y) :- t(X,Y).")
    for backend in BACKENDS:
        eager = seminaive(database, full_rules, store=backend).evaluate(query)
        assert (
            datalog_answers(query, database, full_rules, store=backend)
            == eager
        ), backend


@settings(max_examples=20, deadline=None)
@given(warded_instances(), st.sampled_from(QUERIES))
def test_forced_engines_agree(data, query_text):
    """datalog (on full programs), chase, and network agree through the
    planner for the same query."""
    database, program = data
    if not all(tgd.is_full() for tgd in program):
        program = Program([t for t in program if t.is_full()], name="full")
    query = parse_query(query_text)
    compiled = compile_program(program)
    results = {}
    for method in ("datalog", "chase", "network"):
        session = Session()
        session.compile(compiled)
        session.add_facts(database)
        results[method] = set(
            session.query(query, method=method).to_set()
        )
    assert results["datalog"] == results["chase"] == results["network"]
