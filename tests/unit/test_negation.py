"""Unit tests for stratified negation (the paper's "mild negation").

Programs come from the one parser and run through the one door: the
datalog engine's ``seminaive`` evaluates them stratum by stratum, and
``Session.query`` plans them on it.  Safety and stratifiability are the
linter's E101/E103, surfaced by the evaluator as ``LintError``.
"""

import pytest

from repro.api import Session
from repro.chase import chase
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.datalog.seminaive import datalog_answers, seminaive
from repro.datalog.strata import compute_strata
from repro.lang.parser import parse_program, parse_query
from repro.lint import LintError
from repro.reasoning.answers import is_certain_answer, stream_proof_tree_answers
from repro.reasoning.pwl_ward import decide_pwl_ward
from repro.rewriting.magic import MagicNotApplicable, magic_rewrite
from repro.storage import BACKENDS

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")

#: ``u`` negates the closure ``r`` of ``e``: only ``a`` is unreachable
#: from ``a``.
CLOSURE_COMPLEMENT = """
    e(a,b). e(b,c). n(a). n(b). n(c).
    r(X,Y) :- e(X,Y).
    r(X,Z) :- e(X,Y), r(Y,Z).
    u(X)   :- n(X), not r(a,X).
"""


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
        for store in BACKENDS:
            with pytest.raises(LintError, match="E101"):
                seminaive(database, program, store=store)

    def test_unsafe_head_variable_under_negation_rejected(self):
        program, _ = parse_program("p(X, Y) :- q(X), not r(X).")
        with pytest.raises(ValueError, match="existential"):
            seminaive(Database(), program)

    def test_existential_rule_rejected(self):
        program, _ = parse_program("p(X, Y) :- q(X).")
        with pytest.raises(ValueError, match="existential"):
            seminaive(Database(), program)
        # Negation elsewhere in the program: the planner refuses it
        # whichever engine the existential rule would need.
        session = Session()
        session.load("q(a).\np(X, Y) :- q(X).\ns(X) :- q(X), not r(X).")
        with pytest.raises(ValueError, match="existential rules"):
            session.plan("ans(X) :- s(X).", method="datalog")
        with pytest.raises(ValueError, match="only on the datalog engine"):
            session.plan("ans(X) :- s(X).")

    def test_multi_head_rule_rejected(self):
        program, _ = parse_program("p(X), r(X) :- q(X), not s(X).")
        with pytest.raises(ValueError, match="single-head"):
            seminaive(Database(), program)


class TestStratification:
    def test_negation_free_is_one_order(self):
        program, _ = parse_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """)
        strata = compute_strata(program).layers
        assert sum(len(layer) for layer in strata) == 2

    def test_negation_below_recursion_allowed(self):
        program, _ = parse_program("""
            reach(X, Y)     :- edge(X, Y).
            reach(X, Z)     :- edge(X, Y), reach(Y, Z).
            separated(X, Y) :- node(X), node(Y), not reach(X, Y).
        """)
        strata = compute_strata(program).layers
        # `separated` must evaluate after the `reach` component.
        last = strata[-1]
        assert any(
            rule.head[0].predicate == "separated" for rule in last
        )

    def test_win_move_rejected(self):
        program, _ = parse_program("""
            win(X) :- move(X, Y), not win(Y).
        """)
        database = Database()
        for store in BACKENDS:
            with pytest.raises(LintError, match="E103.*win"):
                seminaive(database, program, store=store)

    def test_arity_conflict_between_rules_rejected(self):
        # `not p(X)` against the rule body's p(X, Y): the empty p/1 would
        # let every e(X) through.  Session.load refuses the same text.
        program, database = parse_program("""
            e(a). e(b). p(a, b).
            s(X, Y) :- e(X), p(X, Y).
            q(X)    :- e(X), not p(X).
        """)
        with pytest.raises(LintError, match="E102.*'p'"):
            datalog_answers(parse_query("q(X) :- q(X)."), database, program)
        with pytest.raises(LintError, match="E102"):
            seminaive(Database(), program)

    def test_arity_conflict_with_a_fact_rejected(self):
        # Only the facts use p/2: the rules alone are consistent.
        program, database = parse_program("""
            e(a). p(a, b).
            q(X) :- e(X), not p(X).
        """)
        assert seminaive(Database(), program).derived == 0
        with pytest.raises(LintError, match="E102.*'p'"):
            seminaive(database, program)

    def test_mutual_negation_rejected(self):
        program, _ = parse_program("""
            p(X) :- base(X), not q(X).
            q(X) :- base(X), not p(X).
        """)
        with pytest.raises(LintError, match="E103"):
            seminaive(Database(), program)


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
        answers = datalog_answers(query, database, program)
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
        assert datalog_answers(query, database, program) == {(c,)}

    def test_negation_free_matches_seminaive(self):
        from repro.datalog.seminaive import datalog_answers

        text = """
            edge(a, b). edge(b, c). edge(c, a).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- edge(X, Y), reach(Y, Z).
        """
        program, database = parse_program(text)
        query = parse_query("q(X, Y) :- reach(X, Y).")
        assert datalog_answers(query, database, program) == \
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
        assert datalog_answers(query, database, program) == {(a,)}

    def test_fixpoint_statistics(self):
        program, database = parse_program("""
            node(a). node(b).
            edge(a, b).
            has_out(X) :- edge(X, Y).
            sink(X)    :- node(X), not has_out(X).
        """)
        result = seminaive(database, program)
        assert result.derived == 2    # has_out(a), sink(b)
        assert len(compute_strata(program).layers) >= 2


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
        answers = datalog_answers(query, database, program)
        assert answers == {(Constant("robot"),)}


class TestOneDoor:
    """Negated programs run on the datalog engine, and only there."""

    def test_closure_complement_on_every_store(self):
        # Regression: the rounds once ignored the negated literal and
        # answered {a, b, c} on every store.
        program, database = parse_program(CLOSURE_COMPLEMENT)
        query = parse_query("q(X) :- u(X).")
        for store in BACKENDS:
            assert datalog_answers(query, database, program, store=store) == {(a,)}
            session = Session(store=store)
            session.load(CLOSURE_COMPLEMENT)
            assert session.query("q(X) :- u(X).").to_set() == {(a,)}, store

    def test_auto_plans_the_datalog_engine(self):
        session = Session()
        session.load(CLOSURE_COMPLEMENT)
        plan = session.plan("q(X) :- u(X).")
        assert plan.method == "datalog"
        assert "2 stratum/strata" in plan.explain()
        assert any("stratum by stratum" in reason for reason in plan.reasons)

    @pytest.mark.parametrize("method", ["pwl", "ward", "chase"])
    def test_other_engines_refused(self, method):
        session = Session()
        session.load(CLOSURE_COMPLEMENT)
        with pytest.raises(ValueError, match="only on the datalog engine"):
            session.plan("q(X) :- u(X).", method=method)

    def test_chase_refuses_negation(self):
        program, database = parse_program(CLOSURE_COMPLEMENT)
        with pytest.raises(ValueError, match="datalog engine"):
            chase(database, program)

    def test_proof_tree_engines_refuse_negation(self):
        program, database = parse_program(CLOSURE_COMPLEMENT)
        query = parse_query("q(X) :- u(X).")
        with pytest.raises(ValueError, match="datalog engine"):
            decide_pwl_ward(query, (a,), database, program)
        with pytest.raises(ValueError, match="datalog engine"):
            is_certain_answer(query, (a,), database, program)
        for method in ("pwl", "ward"):
            with pytest.raises(ValueError, match="datalog engine"):
                list(stream_proof_tree_answers(
                    query, database, program, method=method
                ))


class TestMagicRefusesNegation:
    def test_magic_rewrite_raises(self):
        program, _ = parse_program(CLOSURE_COMPLEMENT)
        with pytest.raises(MagicNotApplicable, match="positive programs"):
            magic_rewrite(program, parse_query("q() :- u(a)."))

    def test_forced_magic_raises(self):
        session = Session()
        session.load(CLOSURE_COMPLEMENT)
        with pytest.raises(MagicNotApplicable):
            session.plan("q() :- u(a).", rewrite="magic")

    def test_auto_resolves_to_none_with_the_reason(self):
        session = Session()
        session.load(CLOSURE_COMPLEMENT)
        plan = session.plan("q() :- u(a).")
        assert plan.rewrite == "none"
        assert "rewrite : none (negated literals" in plan.explain()
        assert session.query("q() :- u(a).").to_set() == {()}
