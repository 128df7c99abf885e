"""Property tests: stratified negation on the compiled matcher is the
naive evaluator it replaced.

``repro.datalog.negation`` runs each stratum as semi-naive rounds of the
compiled join, a negated literal projected from the match row and
tested by membership.  The oracle is the naive evaluator it ran on
before, with a textbook stratification of its own
(``reference_matcher.stratified_fixpoint``).  Random programs have three
strata over ``strategies.SCHEMA`` — ``t`` above the extensional ``e``
and ``p``, ``u`` above ``t``, ``r`` above ``u`` — and negate only lower
strata: variables and constants, repeated variables (a negated
self-join) and ``g``, which has no facts and no rules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.terms import Constant
from repro.core.tgd import TGD
from repro.datalog.negation import stratified_answers, stratified_fixpoint
from repro.lang.parser import parse_program, parse_query

from .reference_matcher import stratified_fixpoint as naive_fixpoint
from .strategies import BODY_VARIABLES, constants, databases, schema_atoms

#: (head, the predicates below it) per stratum, lowest first.
STRATA = (("t", ["e", "p"]), ("u", ["e", "p", "t"]), ("r", ["e", "p", "t", "u"]))


@st.composite
def stratum_rules(draw, head, lower):
    """A safe rule of *head*'s stratum: a positive body over *lower* and
    *head* itself (recursion), a head and up to two negated literals
    over the body's variables and the constants, negating *lower* or
    the empty ``g``."""
    body = draw(st.lists(
        schema_atoms(lower + [head], st.sampled_from(BODY_VARIABLES)),
        min_size=1, max_size=2,
    ))
    bound = sorted({v for a in body for v in a.variables()}, key=str)
    terms = st.one_of(st.sampled_from(bound), constants())
    negated = draw(st.lists(
        st.one_of(
            schema_atoms(lower, terms),
            terms.map(lambda term: Atom("g", (term,))),
        ),
        max_size=2,
    ))
    head_atom = draw(schema_atoms([head], terms))
    return TGD(tuple(body), (head_atom,), negated=tuple(negated))


@st.composite
def stratified_programs(draw):
    rules = []
    for head, lower in STRATA:
        rules += draw(st.lists(stratum_rules(head, lower), min_size=1, max_size=2))
    return Program(rules)


@given(stratified_programs(), databases())
@settings(max_examples=200, deadline=None)
def test_compiled_strata_equal_the_naive_oracle(program, database):
    result = stratified_fixpoint(database, program)
    oracle = naive_fixpoint(database, program)
    assert result.instance.atoms() == oracle.atoms()
    assert result.derived == len(oracle) - len(database)
    for text in ("q(X,Y) :- t(X,Y).", "q(X) :- u(X).", "q(X,Y) :- r(X,Y)."):
        query = parse_query(text)
        assert stratified_answers(query, database, program) == query.evaluate(oracle)


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
    result = stratified_fixpoint(database, program)
    assert result.strata == 3
    assert result.instance.atoms() == naive_fixpoint(database, program).atoms()
    assert any(atom.predicate == "r" for atom in result.instance)


def test_the_explicit_cases_filter_what_they_negate():
    a, b, c = (Constant(name) for name in "abc")

    def relation(case, predicate):
        program, database = parse_program(CASES[case])
        model = stratified_fixpoint(database, program).instance
        return {atom.args for atom in model if atom.predicate == predicate}

    # e(c,a) blocks t(b,c); e(b,a) and e(a,a) are absent.
    assert relation("negated constant", "t") == {(a, b), (c, a)}
    # t(b,b) blocks u(b): only a has an edge and no t-loop.
    assert relation("negated self-join", "u") == {(a,)}
    assert relation("negated self-join", "r") == {(b, b), (b, c)}
