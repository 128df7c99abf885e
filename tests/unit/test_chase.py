"""Unit tests for the chase procedure (Section 2)."""

import pytest

from repro.api import certain_answers
from repro.chase.runner import chase
from repro.chase.termination import (
    AlwaysFire,
    DepthPolicy,
    LinearForestPolicy,
)
from repro.chase.trigger import all_triggers, fire
from repro.core.terms import Constant, Null, NullFactory
from repro.lang.parser import parse_program, parse_query

a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestTriggers:
    def test_all_triggers_found(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
        """)
        triggers = list(all_triggers(list(program), database.to_instance()))
        assert len(triggers) == 2

    def test_fire_invents_fresh_nulls(self):
        program, database = parse_program("p(a). r(X,Z) :- p(X).")
        (trigger,) = all_triggers(list(program), database.to_instance())
        factory = NullFactory()
        atoms1 = fire(trigger, factory)
        atoms2 = fire(trigger, factory)
        (n1,) = [t for t in atoms1[0].args if isinstance(t, Null)]
        (n2,) = [t for t in atoms2[0].args if isinstance(t, Null)]
        assert n1 != n2

    def test_null_depth_increases(self):
        program, database = parse_program("""
            p(a).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        result = chase(database, program, policy=DepthPolicy(3))
        depths = {n.depth for n in result.instance.nulls()}
        assert depths == {1, 2, 3}


class TestChaseBasics:
    def test_transitive_closure(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        result = chase(database, program)
        assert result.saturated
        query = parse_query("q(X,Y) :- t(X,Y).")
        assert result.evaluate(query) == {(a, b), (b, c), (a, c)}

    def test_restricted_chase_reuses_witnesses(self):
        # r already holds for a, so the existential rule need not fire.
        program, database = parse_program("""
            p(a). r(a, b).
            r(X,Z) :- p(X).
        """)
        result = chase(database, program, variant="restricted")
        assert result.saturated
        assert len(result.instance.nulls()) == 0

    def test_oblivious_chase_always_fires(self):
        program, database = parse_program("""
            p(a). r(a, b).
            r(X,Z) :- p(X).
        """)
        result = chase(database, program, variant="oblivious")
        assert len(result.instance.nulls()) == 1

    def test_unknown_variant_rejected(self):
        program, database = parse_program("p(a). r(X,Z) :- p(X).")
        with pytest.raises(ValueError, match="variant"):
            chase(database, program, variant="bogus")

    def test_multi_head_tgd(self):
        program, database = parse_program("""
            p(a).
            r(X,K), s(K) :- p(X).
        """)
        result = chase(database, program)
        assert result.saturated
        query = parse_query("q(X) :- r(X, W), s(W).")
        assert result.evaluate(query) == {(a,)}

    def test_constants_in_rules(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            near_a(Y) :- e(a, Y).
        """)
        result = chase(database, program)
        query = parse_query("q(X) :- near_a(X).")
        assert result.evaluate(query) == {(b,)}


class TestLimits:
    def test_infinite_chase_truncated_by_steps(self):
        program, database = parse_program("""
            p(a).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        result = chase(database, program, max_steps=10)
        assert not result.saturated
        assert result.fired <= 10

    def test_infinite_chase_truncated_by_atoms(self):
        program, database = parse_program("""
            p(a).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        result = chase(database, program, max_atoms=20)
        assert not result.saturated
        assert len(result.instance) <= 22  # one firing may add a few atoms

    def test_a_limit_with_nothing_left_to_fire_is_saturated(self):
        # r(c,d) already satisfies the one trigger's head, so the
        # restricted chase has nothing to fire when max_atoms stops it.
        program, database = parse_program("a(c). r(c,d). r(X,Z) :- a(X).")
        result = chase(database, program, max_atoms=2)
        assert result.saturated and result.fired == 0
        unlimited = chase(database, program)
        assert result.instance.atoms() == unlimited.instance.atoms()
        # The oblivious chase fires every trigger: one is still queued.
        oblivious = chase(database, program, variant="oblivious", max_atoms=2)
        assert not oblivious.saturated

    def test_depth_policy_terminates(self):
        program, database = parse_program("""
            p(a).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        result = chase(database, program, policy=DepthPolicy(2))
        assert result.saturated is True or result.fired > 0
        assert all(n.depth <= 2 for n in result.instance.nulls())


#: The existential cycle of E7b: P → ∃z R(x,z) → P.
INVENTING_CYCLE = """
    p(c1). p(c2). p(c3).
    r(X,Z) :- p(X).
    p(Y) :- r(X,Y).
"""


class TestLinearForestPolicy:
    def test_terminates_the_e7b_recursion(self):
        program, database = parse_program(INVENTING_CYCLE)
        policy = LinearForestPolicy()
        result = chase(database, program, policy=policy, max_atoms=5000)
        assert result.saturated
        assert len(result.instance) == 15
        assert policy.cuts == result.suppressed == 3

    def test_always_fire_runs_away(self):
        program, database = parse_program(INVENTING_CYCLE)
        result = chase(database, program, policy=AlwaysFire(), max_atoms=5000)
        assert not result.saturated
        assert result.suppressed == 0

    def test_existential_free_triggers_are_never_cut(self):
        program, database = parse_program("""
            e(a,b). e(b,c). p(a).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
            s(X) :- r(X,Y).
        """)
        policy = LinearForestPolicy()
        guided = chase(database, program, policy=policy, max_atoms=5000)
        assert guided.saturated and policy.cuts == guided.suppressed == 1
        unguided = chase(database, program, max_atoms=5000)
        for text in ("q(X,Y) :- t(X,Y).", "q(X) :- s(X)."):
            query = parse_query(text)
            assert guided.evaluate(query) == unguided.evaluate(query)

    def test_suppressed_counts_only_cuts(self):
        program, database = parse_program(INVENTING_CYCLE + """
            e(c1,c2). t(X,Y) :- e(X,Y), p(X).
        """)
        policy = LinearForestPolicy()
        result = chase(database, program, policy=policy, max_atoms=5000)
        assert result.saturated
        assert result.suppressed == policy.cuts > 0
        assert result.evaluate(parse_query("q(X,Y) :- t(X,Y).")) == {
            (Constant("c1"), Constant("c2"))
        }


class TestChaseGraph:
    def test_proposition_21_cert_equals_chase_eval(self):
        # cert(q, D, Σ) = q(chase(D, Σ)) on a terminating instance.
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        expected = {(a, b), (b, c), (a, c)}
        assert query.evaluate(chase(database, program).instance) == expected
        assert certain_answers(
            query, database, program, method="chase", strict=False
        ) == expected
