"""Unit tests for the Section 4.1 UCQ unfolding."""

import pytest

from repro.api import certain_answers
from repro.core.terms import Constant
from repro.lang.parser import parse_program, parse_query
from repro.rewriting import unfold
from repro.storage import BACKENDS, ColumnarStore

a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestNonRecursive:
    def test_single_rule_unfolds_once(self):
        program, database = parse_program("""
            e(a,b).
            t(X,Y) :- e(X,Y).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = unfold(query, program)
        assert rewriting.complete
        # q itself plus the one resolvent over e.
        assert len(rewriting) == 2
        assert rewriting.evaluate(database) == {(a, b)}

    def test_chain_of_rules(self):
        program, database = parse_program("""
            base(a).
            mid(X) :- base(X).
            top(X) :- mid(X).
        """)
        query = parse_query("q(X) :- top(X).")
        rewriting = unfold(query, program)
        assert rewriting.complete
        assert rewriting.evaluate(database) == {(a,)}

    def test_existential_rule_unfolds(self):
        program, database = parse_program("""
            p(a).
            r(X,K) :- p(X).
        """)
        query = parse_query("q(X) :- r(X,Y).")
        rewriting = unfold(query, program)
        assert rewriting.complete
        assert rewriting.evaluate(database) == {(a,)}

    def test_existential_blocks_shared_variable(self):
        # q(X) :- r(X,Y), s(Y): Y is shared, so the invented value of
        # r cannot discharge the pattern — no unfolding answer.
        program, database = parse_program("""
            p(a).
            r(X,K) :- p(X).
        """)
        query = parse_query("q(X) :- r(X,Y), s(Y).")
        rewriting = unfold(query, program)
        assert rewriting.complete
        assert rewriting.evaluate(database) == set()

    def test_matches_certain_answers_nonrecursive(self):
        program, database = parse_program("""
            visit(a,b). visit(b,c). special(b).
            hop(X,Y)  :- visit(X,Y).
            mark(X)   :- hop(X,Y), special(Y).
        """)
        query = parse_query("q(X) :- mark(X).")
        rewriting = unfold(query, program)
        assert rewriting.complete
        assert rewriting.evaluate(database) == certain_answers(
            query, database, program
        )


class TestRecursive:
    def tc_setup(self):
        return parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)

    def test_truncation_reported(self):
        program, _ = self.tc_setup()
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = unfold(query, program, max_depth=2)
        assert not rewriting.complete

    def test_truncated_is_sound(self):
        program, database = self.tc_setup()
        query = parse_query("q(X,Y) :- t(X,Y).")
        exact = certain_answers(query, database, program)
        for depth in (0, 1, 2, 4):
            rewriting = unfold(query, program, max_depth=depth)
            assert rewriting.evaluate(database) <= exact

    def test_deep_enough_budget_finds_all_on_fixed_db(self):
        program, database = self.tc_setup()
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = unfold(query, program, max_depth=8)
        # qΣ is infinite (complete=False) but the database only needs
        # paths of length ≤ 2, which depth 8 covers.
        assert rewriting.evaluate(database) == certain_answers(
            query, database, program
        )

    def test_max_cqs_budget(self):
        program, _ = self.tc_setup()
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = unfold(query, program, max_depth=10, max_cqs=3)
        assert len(rewriting) <= 3
        assert not rewriting.complete

    def test_max_atoms_budget(self):
        program, database = self.tc_setup()
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = unfold(query, program, max_depth=10, max_atoms=2)
        assert all(d.width() <= 2 for d in rewriting.disjuncts)
        assert rewriting.evaluate(database) <= certain_answers(
            query, database, program
        )


class TestEvaluateStores:
    """Regression: ``UCQRewriting.evaluate`` used to rebuild
    ``database.to_instance()`` on every call and ignore the store
    backend entirely; it now reuses any FactStore in place and honours
    an explicit backend choice, with identical answers everywhere."""

    def setup_case(self):
        program, database = parse_program("""
            visit(a,b). visit(b,c). special(b). special(c).
            hop(X,Y)  :- visit(X,Y).
            mark(X)   :- hop(X,Y), special(Y).
        """)
        query = parse_query("q(X) :- mark(X).")
        return unfold(query, program), database

    def test_equivalent_across_backends(self):
        rewriting, database = self.setup_case()
        reference = rewriting.evaluate(database)
        assert reference == {(a,), (b,)}
        for backend in BACKENDS:
            assert rewriting.evaluate(database, store=backend) == reference

    def test_reuses_fact_store_without_copy(self):
        rewriting, database = self.setup_case()
        store = ColumnarStore(database)
        before = store.stats["cache_misses"] + store.stats["cache_hits"]
        assert rewriting.evaluate(store) == rewriting.evaluate(database)
        # The probes ran against the store we passed — no hidden
        # Instance rebuild (the old behaviour never touched it).
        after = store.stats["cache_misses"] + store.stats["cache_hits"]
        assert after > before

    def test_repeated_evaluation_does_not_copy(self):
        rewriting, database = self.setup_case()
        first = rewriting.evaluate(database)
        assert rewriting.evaluate(database) == first

    def test_unknown_backend_rejected(self):
        rewriting, database = self.setup_case()
        with pytest.raises(ValueError, match="unknown storage backend"):
            rewriting.evaluate(database, store="bogus")


class TestValidation:
    def test_negative_depth_rejected(self):
        program, _ = parse_program("t(X,Y) :- e(X,Y).")
        query = parse_query("q(X,Y) :- t(X,Y).")
        with pytest.raises(ValueError, match="non-negative"):
            unfold(query, program, max_depth=-1)

    def test_zero_depth_keeps_only_query(self):
        program, database = parse_program("""
            e(a,b).
            t(X,Y) :- e(X,Y).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = unfold(query, program, max_depth=0)
        assert len(rewriting) == 1
        assert not rewriting.complete
        assert rewriting.evaluate(database) == set()
