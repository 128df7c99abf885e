"""Integration test: the full OWL 2 QL scenario of Example 3.3.

Runs the paper's example program end-to-end through every engine in the
package — chase, linear proof search, AND-OR search, Datalog rewriting,
operator network — and checks they all agree on the certain answers.
"""

import pytest

from repro.analysis import is_piecewise_linear, is_warded
from repro.api import certain_answers
from repro.chase.runner import chase
from repro.chase.termination import DepthPolicy
from repro.lang.parser import parse_program, parse_query


@pytest.fixture(scope="module")
def ontology():
    program, database = parse_program("""
        % instance data
        type(alice, phd_student).
        type(bob, professor).
        subClass(phd_student, student).
        subClass(student, person).
        subClass(professor, staff).
        subClass(staff, person).
        restriction(student, enrolledIn).
        restriction(course_like, enrolledIn_inv).
        inverse(enrolledIn, enrolledIn_inv).

        subClassStar(X, Y) :- subClass(X, Y).
        subClassStar(X, Z) :- subClassStar(X, Y), subClass(Y, Z).
        type(X, Z)         :- type(X, Y), subClassStar(Y, Z).
        triple(X, Z, W)    :- type(X, Y), restriction(Y, Z).
        triple(Z, W, X)    :- triple(X, Y, Z), inverse(Y, W).
        type(X, W)         :- triple(X, Y, Z), restriction(W, Y).
    """)
    return program, database


def test_program_is_warded_pwl(ontology):
    program, _ = ontology
    assert is_warded(program)
    assert is_piecewise_linear(program)


def test_subclass_closure(ontology):
    program, database = ontology
    query = parse_query("q(X,Y) :- subClassStar(X,Y).")
    answers = certain_answers(query, database, program, method="pwl")
    pairs = {(str(x), str(y)) for x, y in answers}
    assert ("phd_student", "person") in pairs
    assert ("professor", "person") in pairs
    assert ("phd_student", "staff") not in pairs


def test_type_propagation(ontology):
    program, database = ontology
    query = parse_query("q(Y) :- type(alice, Y).")
    answers = {str(y) for (y,) in certain_answers(query, database, program,
                                                  method="pwl")}
    assert answers == {"phd_student", "student", "person"}


def test_inverse_restriction_roundtrip(ontology):
    # alice is enrolled in some invented course; by the inverse rule the
    # course points back; the second restriction types it.
    program, database = ontology
    boolean = parse_query("q() :- triple(alice, enrolledIn, W).")
    assert certain_answers(boolean, database, program, method="pwl") == {()}
    typed = parse_query("q() :- type(W, course_like).")
    assert certain_answers(typed, database, program, method="pwl") == {()}


def test_engines_agree(ontology):
    program, database = ontology
    query = parse_query("q(X,Y) :- type(X,Y).")
    via_pwl = certain_answers(query, database, program, method="pwl")
    via_ward = certain_answers(query, database, program, method="ward")
    assert via_pwl == via_ward
    # Depth-bounded chase (sound under-approximation) stays inside.
    bounded = chase(database, program, policy=DepthPolicy(2))
    assert bounded.evaluate(query) <= via_pwl


def test_rewriting_agrees(ontology):
    program, database = ontology
    from repro.datalog.seminaive import datalog_answers
    from repro.expressiveness.translation import pwl_to_datalog

    query = parse_query("q(Y) :- subClassStar(phd_student, Y).")
    rewriting = pwl_to_datalog(
        query, program, width_bound=3, database_schema="full",
        max_states=4000,
    )
    assert rewriting.complete
    rewritten = datalog_answers(rewriting.query, database, rewriting.program)
    direct = certain_answers(query, database, program, method="pwl")
    assert rewritten == direct
