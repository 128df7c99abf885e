"""Unit tests for semi-naive Datalog evaluation and strata."""

import pytest

from repro.core.terms import Constant
from repro.datalog.seminaive import datalog_answers, seminaive
from repro.datalog.strata import compute_strata
from repro.lang.parser import parse_program, parse_query

from ..helpers import by_layer

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


class TestSemiNaive:
    def test_transitive_closure(self):
        program, database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        result = seminaive(database, program)
        query = parse_query("q(X,Y) :- t(X,Y).")
        assert result.evaluate(query) == {
            (a, b), (b, c), (c, d), (a, c), (b, d), (a, d)
        }
        assert result.derived == 6

    def test_rounds_reflect_chain_depth(self):
        program, database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        result = seminaive(database, program)
        assert result.rounds >= 3

    def test_existential_program_rejected(self):
        program, database = parse_program("r(X,K) :- p(X).")
        with pytest.raises(ValueError, match="full TGDs"):
            seminaive(database, program)

    def test_multi_head_rejected(self):
        program, database = parse_program("r(X), s(X) :- p(X).")
        with pytest.raises(ValueError, match="single-head"):
            seminaive(database, program)

    def test_no_duplicate_derivations(self):
        # Semi-naive should not rediscover old facts: `considered`
        # stays linear in derived facts for a chain.
        program, database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        result = seminaive(database, program)
        assert result.considered <= 3 * result.derived + len(database)

    def test_mutual_recursion(self):
        program, database = parse_program("""
            start(a). e(a,b). e(b,c).
            even(X) :- start(X).
            odd(Y) :- even(X), e(X,Y).
            even(Y) :- odd(X), e(X,Y).
        """)
        result = seminaive(database, program)
        assert result.evaluate(parse_query("q(X) :- even(X).")) == {(a,), (c,)}
        assert result.evaluate(parse_query("q(X) :- odd(X).")) == {(b,)}

    def test_constants_in_rules(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            from_a(Y) :- e(a,Y).
        """)
        assert datalog_answers(
            parse_query("q(X) :- from_a(X)."), database, program
        ) == {(b,)}


class TestStrata:
    def test_layers_are_topological(self):
        program, _ = parse_program("""
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
            u(X) :- t(X,Y).
            v(X) :- u(X).
        """)
        strata = compute_strata(program)
        heads = [
            {tgd.head[0].predicate for tgd in layer} for layer in strata.layers
        ]
        assert heads.index({"t"}) < heads.index({"u"}) < heads.index({"v"})

    def test_materialized_equals_global(self):
        program, database = parse_program("""
            e(a,b). e(b,c). e(c,d).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
            u(X) :- t(X,Y).
            v(X,Y) :- u(X), t(X,Y).
        """)
        query = parse_query("q(X,Y) :- v(X,Y).")
        with_mat = by_layer(database, program)[-1]
        without = seminaive(database, program)
        assert with_mat.evaluate(query) == without.evaluate(query)

    def test_per_stratum_stats(self):
        program, database = parse_program("""
            e(a,b).
            t(X,Y) :- e(X,Y).
            u(X) :- t(X,Y).
        """)
        per_stratum_derived = [r.derived for r in by_layer(database, program)]
        assert len(per_stratum_derived) >= 2
        assert sum(per_stratum_derived) == 2
