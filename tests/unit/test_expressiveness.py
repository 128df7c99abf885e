"""Unit tests for the Section 6 expressiveness machinery."""

import pytest

from repro.analysis.piecewise import is_piecewise_linear
from repro.analysis.wardedness import is_warded
from repro.api import certain_answers
from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.terms import Constant, Variable
from repro.core.tgd import TGD
from repro.datalog.seminaive import datalog_answers
from repro.expressiveness.separation import (
    refutes_full_program,
    separation_witness,
)
from repro.expressiveness.translation import (
    proof_tree_rewriting,
    pwl_to_datalog,
    set_partitions,
    ward_to_datalog,
)
from repro.lang.parser import parse_program, parse_query

X = Variable("X")
a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestSetPartitions:
    def test_counts_are_bell_numbers(self):
        vs = [Variable(n) for n in "xyz"]
        assert len(list(set_partitions(vs[:0]))) == 1
        assert len(list(set_partitions(vs[:1]))) == 1
        assert len(list(set_partitions(vs[:2]))) == 2
        assert len(list(set_partitions(vs[:3]))) == 5

    def test_partitions_cover_all_items(self):
        vs = [Variable(n) for n in "xy"]
        for partition in set_partitions(vs):
            flattened = [v for block in partition for v in block]
            assert sorted(flattened, key=str) == sorted(vs, key=str)


class TestPwlRewriting:
    def test_tc_rewriting_equivalent(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = pwl_to_datalog(query, program, width_bound=3)
        assert rewriting.complete
        assert rewriting.program.is_full()
        assert is_piecewise_linear(rewriting.program)
        rewritten_answers = datalog_answers(
            rewriting.query, database, rewriting.program
        )
        direct = certain_answers(query, database, program, method="pwl")
        assert rewritten_answers == direct

    def test_rewriting_handles_merged_outputs(self):
        # q(x, y) with x = y realized through the root partition π.
        program, database = parse_program("""
            e(a,a). e(a,b).
            t(X,Y) :- e(X,Y).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = pwl_to_datalog(query, program, width_bound=3)
        answers = datalog_answers(rewriting.query, database, rewriting.program)
        assert (a, a) in answers and (a, b) in answers

    def test_existential_program_rewriting_full_db(self):
        program, database = parse_program("""
            p(c). p(d).
            r(X,Z) :- p(X).
            p(Y) :- r(X,Y).
        """)
        query = parse_query("q(X) :- r(X,Y).")
        rewriting = pwl_to_datalog(
            query, program, width_bound=4, database_schema="full"
        )
        answers = datalog_answers(rewriting.query, database, rewriting.program)
        assert answers == certain_answers(query, database, program, method="pwl")

    def test_membership_enforced(self):
        program, _ = parse_program("""
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        with pytest.raises(ValueError, match="piece-wise linear"):
            pwl_to_datalog(query, program)

    def test_max_states_reports_incomplete(self):
        program, _ = parse_program("""
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = pwl_to_datalog(query, program, max_states=2)
        assert not rewriting.complete


class TestWardRewriting:
    def test_doubling_tc_rewriting(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        query = parse_query("q(X,Y) :- t(X,Y).")
        rewriting = ward_to_datalog(query, program, width_bound=3)
        assert rewriting.program.is_full()
        answers = datalog_answers(rewriting.query, database, rewriting.program)
        assert answers == {(a, b), (b, c), (a, c)}


class TestSeparation:
    def test_witness_classes(self):
        witness = separation_witness()
        assert is_warded(witness.program)
        assert is_piecewise_linear(witness.program)
        assert not witness.program.is_full()

    def test_witness_semantics(self):
        # Q1(D) ≠ ∅ and Q2(D) = ∅ under the existential program.
        witness = separation_witness()
        assert certain_answers(
            witness.q1, witness.database, witness.program, method="pwl"
        ) == {()}
        assert certain_answers(
            witness.q2, witness.database, witness.program, method="pwl"
        ) == set()

    def test_every_full_candidate_refuted(self):
        x, y = Variable("x"), Variable("y")
        candidates = [
            # P(x) → R(x,x): agrees on q1, wrongly answers q2.
            Program([TGD((Atom("P", (x,)),), (Atom("R", (x, x)),))]),
            # no rules deriving R: fails q1.
            Program([TGD((Atom("P", (x,)),), (Atom("S", (x,)),))]),
            # copy through an intermediate: still forced to reuse c.
            Program([
                TGD((Atom("P", (x,)),), (Atom("S", (x,)),)),
                TGD((Atom("S", (x,)),), (Atom("R", (x, x)),)),
            ]),
        ]
        for candidate in candidates:
            assert refutes_full_program(candidate)

    def test_non_datalog_candidate_rejected(self):
        x, k = Variable("x"), Variable("k")
        existential = Program([TGD((Atom("P", (x,)),), (Atom("R", (x, k)),))])
        with pytest.raises(ValueError, match="full"):
            refutes_full_program(existential)


class TestNonLinearRewritingFlag:
    def test_linear_flag_controls_decomposition_shape(self):
        program, database = parse_program("""
            e(a,b). f(a,c).
            t(X,Y) :- e(X,Y).
            u(X,Y) :- f(X,Y).
        """)
        query = parse_query("q(X) :- t(X,Y), u(X,Z).")
        linear = proof_tree_rewriting(query, program, linear=True, width_bound=3)
        nonlinear = proof_tree_rewriting(query, program, linear=False, width_bound=3)
        for rewriting in (linear, nonlinear):
            answers = datalog_answers(rewriting.query, database, rewriting.program)
            assert answers == {(a,)}
