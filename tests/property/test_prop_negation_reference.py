"""Property tests: stratified negation through the one door is the
naive evaluator it replaced.

``Session.query`` plans a negated program on the datalog engine, whose
rounds run stratum by stratum — the interpreter on ``instance``, the
batch kernels (a negated literal a membership test on the id row) on
``columnar`` and ``sharded``.  The oracle is a naive evaluator with a
textbook stratification of its own
(``reference_matcher.stratified_fixpoint``).  Random programs come from
``strategies.stratified_programs``: three strata that negate only lower
ones, with constants, repeated variables (a negated self-join) and
``g``, which has no facts and no rules.
"""

import pytest
from hypothesis import given, settings

from repro.api import Session
from repro.core.terms import Constant
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_program, parse_query
from repro.storage import BACKENDS

from .reference_matcher import stratified_fixpoint as naive_fixpoint
from .strategies import databases, stratified_programs

QUERIES = ("q(X,Y) :- t(X,Y).", "q(X) :- u(X).", "q(X,Y) :- r(X,Y).")


def _session(store, program, database) -> Session:
    session = Session(store=store)
    session.compile(program)
    session.add_facts(database)
    return session


@given(stratified_programs(), databases())
@settings(max_examples=200, deadline=None)
def test_compiled_strata_equal_the_naive_oracle(program, database):
    oracle = naive_fixpoint(database, program)
    for store in BACKENDS:
        result = seminaive(database, program, store=store)
        assert set(result.instance) == oracle.atoms(), store
        assert result.derived == len(oracle) - len(database), store
        session = _session(store, program, database)
        for text in QUERIES:
            query = parse_query(text)
            answers = session.query(text, rewrite="none").to_set()
            assert answers == query.evaluate(oracle), (store, text)


CASES = {
    "negated constant": """
        e(a,b). e(b,c). e(c,a). p(a).
        t(X,Y) :- e(X,Y), not e(Y,a).
        u(X)   :- t(X,Y), not p(b).
        r(X,Y) :- e(X,Y), not u(X).
    """,
    "negated self-join": """
        e(a,b). e(b,b). e(b,c).
        t(X,Y) :- e(X,Y).
        t(X,Z) :- t(X,Y), e(Y,Z).
        u(X)   :- e(X,Y), not t(X,X).
        r(X,Y) :- t(X,Y), not u(X), not u(Y).
    """,
    "negated predicate with no facts and no rules": """
        e(a,b). e(b,c). p(b).
        t(X,Y) :- e(X,Y), not g(X).
        u(X)   :- t(X,Y), not g(Y), not p(Y).
        r(X,Y) :- t(X,Y), u(X), not g(a).
    """,
}


@pytest.mark.parametrize("text", CASES.values(), ids=list(CASES))
def test_explicit_case(text):
    program, database = parse_program(text)
    oracle = naive_fixpoint(database, program).atoms()
    for store in BACKENDS:
        session = _session(store, program, database)
        assert "3 stratum/strata" in session.explain("q(X) :- u(X).")
        model = seminaive(database, program, store=store).instance
        assert set(model) == oracle, store
        assert any(atom.predicate == "r" for atom in model)


def test_the_explicit_cases_filter_what_they_negate():
    a, b, c = (Constant(name) for name in "abc")

    def relation(case, predicate, store):
        program, database = parse_program(CASES[case])
        session = _session(store, program, database)
        arity = {"t": 2, "u": 1, "r": 2}[predicate]
        args = ", ".join("XY"[:arity])
        return session.query(f"q({args}) :- {predicate}({args}).").to_set()

    for store in BACKENDS:
        # e(c,a) blocks t(b,c); e(b,a) and e(a,a) are absent.
        assert relation("negated constant", "t", store) == {(a, b), (c, a)}
        # t(b,b) blocks u(b): only a has an edge and no t-loop.
        assert relation("negated self-join", "u", store) == {(a,)}
        assert relation("negated self-join", "r", store) == {(b, b), (b, c)}
