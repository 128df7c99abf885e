"""Unit tests for harmless/harmful/dangerous classification (Section 3)."""

import pytest

from repro.analysis.affected import affected_positions
from repro.analysis.variable_roles import classify_variables
from repro.core.terms import Variable
from repro.lang.parser import parse_program

X, Y = Variable("X"), Variable("Y")


def roles_for(text: str, rule_index: int):
    program, _ = parse_program(text)
    affected = affected_positions(program)
    return classify_variables(program[rule_index], affected)


class TestClassification:
    def test_paper_dangerous_example(self):
        # P(x) → ∃z R(x,z) and R(x,y) → P(y): y in the second rule is
        # dangerous (the paper's introductory example of wardedness).
        roles = roles_for(
            """
            r(X, Z) :- p(X).
            p(Y) :- r(X, Y).
            """,
            1,
        )
        assert Y in roles.dangerous
        assert Y in roles.harmful
        # x occurs at the affected position r[1] only → harmful, but it
        # does not reach the head → not dangerous.
        assert X in roles.harmful
        assert X not in roles.dangerous

    def test_harmless_via_nonaffected_occurrence(self):
        roles = roles_for(
            """
            r(X, Z) :- p(X).
            p(Y) :- r(X, Y), s(Y).
            """,
            1,
        )
        # y also occurs at s[1] (non-affected) → harmless.
        assert Y in roles.harmless
        assert Y not in roles.harmful

    def test_full_rules_have_no_harmful_variables(self):
        roles = roles_for("t(X, Y) :- e(X, Y).", 0)
        assert roles.harmful == frozenset()
        assert roles.harmless == {X, Y}

    def test_dangerous_subset_of_harmful(self):
        program, _ = parse_program(
            """
            r(X, Z) :- p(X).
            p(Y) :- r(X, Y).
            """
        )
        affected = affected_positions(program)
        for tgd in program:
            roles = classify_variables(tgd, affected)
            assert roles.dangerous <= roles.harmful
            assert not (roles.harmless & roles.harmful)

    def test_role_of(self):
        roles = roles_for(
            """
            r(X, Z) :- p(X).
            p(Y) :- r(X, Y).
            """,
            1,
        )
        assert roles.role_of(Y) == "dangerous"
        assert roles.role_of(X) == "harmful"
        with pytest.raises(KeyError):
            roles.role_of(Variable("nope"))
