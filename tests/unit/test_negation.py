"""Unit tests for stratified negation (the paper's "mild negation").

Programs come from the one parser; safety and stratifiability are the
linter's E101/E103, surfaced by the evaluator as ``LintError``.
"""

import pytest

from repro.core.terms import Constant
from repro.datalog.negation import (
    negation_stratification,
    stratified_answers,
    stratified_fixpoint,
)
from repro.lang.parser import parse_program, parse_query
from repro.lint import LintError

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


class TestFrontEnd:
    def test_negative_literals_ride_on_the_core_rule_type(self):
        program, database = parse_program("""
            node(a).
            separated(X, Y) :- node(X), node(Y), not edge(X, Y).
        """)
        (rule,) = program
        assert len(rule.body) == 2
        assert [atom.predicate for atom in rule.negated] == ["edge"]
        assert len(database) == 1
        assert program.has_negation()


class TestSafety:
    def test_unsafe_existential_negation_rejected(self):
        # "not edge(X, Y)" with Y nowhere positive is the classic
        # safety violation; the supported encoding goes through a
        # has_out(X) :- edge(X, Y) helper.
        program, database = parse_program("""
            node(a).
            sink(X) :- node(X), not edge(X, Y).
        """)
        with pytest.raises(LintError, match="E101"):
            stratified_fixpoint(database, program)

    def test_unsafe_head_variable_under_negation_rejected(self):
        program, _ = parse_program("p(X, Y) :- q(X), not r(X).")
        with pytest.raises(ValueError, match="existential"):
            negation_stratification(program)

    def test_existential_rule_rejected(self):
        program, _ = parse_program("p(X, Y) :- q(X).")
        with pytest.raises(ValueError, match="existential"):
            negation_stratification(program)

    def test_multi_head_rule_rejected(self):
        program, _ = parse_program("p(X), r(X) :- q(X).")
        with pytest.raises(ValueError, match="single-head"):
            negation_stratification(program)


class TestStratification:
    def test_negation_free_is_one_order(self):
        program, _ = parse_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)
        strata = negation_stratification(program)
        assert sum(len(layer) for layer in strata) == 2

    def test_negation_below_recursion_allowed(self):
        program, _ = parse_program("""
            reach(X, Y)     :- edge(X, Y).
            reach(X, Z)     :- edge(X, Y), reach(Y, Z).
            separated(X, Y) :- node(X), node(Y), not reach(X, Y).
        """)
        strata = negation_stratification(program)
        # `separated` must evaluate after the `reach` component.
        last = strata[-1]
        assert any(
            rule.head[0].predicate == "separated" for rule in last
        )

    def test_win_move_rejected(self):
        program, _ = parse_program("""
            win(X) :- move(X, Y), not win(Y).
        """)
        with pytest.raises(LintError, match="E103.*win"):
            negation_stratification(program)

    def test_mutual_negation_rejected(self):
        program, _ = parse_program("""
            p(X) :- base(X), not q(X).
            q(X) :- base(X), not p(X).
        """)
        with pytest.raises(LintError, match="E103"):
            negation_stratification(program)


class TestEvaluation:
    def test_complement_of_reachability(self):
        program, database = parse_program("""
            node(a). node(b). node(c).
            edge(a, b). edge(b, c).
            reach(X, Y)     :- edge(X, Y).
            reach(X, Z)     :- edge(X, Y), reach(Y, Z).
            separated(X, Y) :- node(X), node(Y), not reach(X, Y).
        """)
        query = parse_query("q(X, Y) :- separated(X, Y).")
        answers = stratified_answers(query, database, program)
        # Pairs with NO path, including reflexive ones (no self-loops).
        assert (b, a) in answers
        assert (c, a) in answers
        assert (a, a) in answers
        assert (a, b) not in answers
        assert (a, c) not in answers
        assert len(answers) == 6

    def test_sinks(self):
        program, database = parse_program("""
            node(a). node(b). node(c).
            edge(a, b). edge(b, c).
            has_out(X) :- edge(X, Y).
            sink(X)    :- node(X), not has_out(X).
        """)
        query = parse_query("q(X) :- sink(X).")
        assert stratified_answers(query, database, program) == {(c,)}

    def test_negation_free_matches_seminaive(self):
        from repro.datalog.seminaive import datalog_answers

        text = """
            edge(a, b). edge(b, c). edge(c, a).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """
        program, database = parse_program(text)
        query = parse_query("q(X, Y) :- reach(X, Y).")
        assert stratified_answers(query, database, program) == \
            datalog_answers(query, database, program)

    def test_double_negation_through_strata(self):
        program, database = parse_program("""
            node(a). node(b).
            edge(a, b).
            has_out(X)  :- edge(X, Y).
            sink(X)     :- node(X), not has_out(X).
            source(X)   :- node(X), not sink(X).
        """)
        query = parse_query("q(X) :- source(X).")
        assert stratified_answers(query, database, program) == {(a,)}

    def test_fixpoint_statistics(self):
        program, database = parse_program("""
            node(a). node(b).
            edge(a, b).
            has_out(X) :- edge(X, Y).
            sink(X)    :- node(X), not has_out(X).
        """)
        result = stratified_fixpoint(database, program)
        assert result.derived == 2    # has_out(a), sink(b)
        assert result.strata >= 2


class TestOwl2QLWithNegation:
    """The paper's key property (2): OWL 2 QL entailment + mild negation."""

    def test_classes_without_instances(self):
        program, database = parse_program("""
            class(person). class(robot).
            subClass(employee, person). class(employee).
            type(alice, employee).

            subClassStar(X, Y) :- subClass(X, Y).
            subClassStar(X, Z) :- subClassStar(X, Y), subClass(Y, Z).
            type(X, Z)         :- type(X, Y), subClassStar(Y, Z).

            inhabited(C) :- type(X, C).
            empty(C)     :- class(C), not inhabited(C).
        """)
        query = parse_query("q(C) :- empty(C).")
        answers = stratified_answers(query, database, program)
        assert answers == {(Constant("robot"),)}
