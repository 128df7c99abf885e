"""Unit tests for the incremental closure reasoner (Dyn-FO application)."""

import pytest

from repro.api import certain_answers
from repro.core.atoms import Atom
from repro.core.terms import Constant
from repro.dynfo import IncrementalReasoner, closure_pattern
from repro.lang.parser import parse_program

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def right_linear():
    return parse_program("""
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)[0]


class TestClosurePattern:
    def test_right_linear_recognized(self):
        pattern = closure_pattern(right_linear())
        assert pattern is not None
        assert (pattern.edge_predicate, pattern.closure_predicate) == ("e", "t")
        assert pattern.orientation == "right"
        assert not pattern.linearized

    def test_left_linear_recognized(self):
        program, _ = parse_program("""
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), e(Y,Z).
        """)
        pattern = closure_pattern(program)
        assert pattern is not None
        assert pattern.orientation == "left"

    def test_doubling_recognized_via_linearization(self):
        program, _ = parse_program("""
            t(X,Y) :- e(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
        """)
        pattern = closure_pattern(program)
        assert pattern is not None
        assert pattern.linearized

    def test_unrelated_program_rejected(self):
        program, _ = parse_program("""
            s(X) :- p(X,Y).
            p(X,Y) :- q(Y,X).
        """)
        assert closure_pattern(program) is None

    def test_non_binary_rejected(self):
        program, _ = parse_program("""
            t(X,Y) :- e(X,Y,W).
            t(X,Z) :- e(X,Y,W), t(Y,Z).
        """)
        assert closure_pattern(program) is None


class TestIncrementalReasoner:
    def test_rejects_unrecognized_program(self):
        program, _ = parse_program("p(X) :- q(X).")
        with pytest.raises(ValueError, match="transitive-closure shape"):
            IncrementalReasoner(program)

    def test_insert_and_query(self):
        reasoner = IncrementalReasoner(right_linear())
        reasoner.insert(Atom("e", (a, b)))
        reasoner.insert(Atom("e", (b, c)))
        assert reasoner.certain((a, c))
        assert not reasoner.certain((c, a))
        assert not reasoner.certain((a, a))

    def test_non_edge_facts_ignored(self):
        reasoner = IncrementalReasoner(right_linear())
        assert reasoner.insert(Atom("label", (a,))) == 0

    def test_closure_facts_rejected(self):
        reasoner = IncrementalReasoner(right_linear())
        with pytest.raises(ValueError, match="closure predicate"):
            reasoner.insert(Atom("t", (a, b)))

    def test_seeded_from_database(self):
        program, database = parse_program("""
            e(a,b). e(b,c).
            t(X,Y) :- e(X,Y).
            t(X,Z) :- e(X,Y), t(Y,Z).
        """)
        reasoner = IncrementalReasoner(program, database)
        assert reasoner.certain((a, c))

    def test_answers_match_engine_after_stream(self):
        program = right_linear()
        reasoner = IncrementalReasoner(program)
        stream = [(a, b), (b, c), (c, d), (d, b)]
        from repro.core.instance import Database

        database = Database()
        for u, v in stream:
            fact = Atom("e", (u, v))
            database.add(fact)
            reasoner.insert(fact)
            # Invariant after *every* insertion: maintained view equals
            # a from-scratch evaluation.
            expected = certain_answers(
                reasoner.query(), database, program
            )
            assert reasoner.answers() == expected

    def test_cycle_makes_self_pairs_certain(self):
        reasoner = IncrementalReasoner(right_linear())
        reasoner.insert_edge(a, b)
        reasoner.insert_edge(b, a)
        assert reasoner.certain((a, a))
        assert reasoner.certain((b, b))

    def test_deletion_path(self):
        reasoner = IncrementalReasoner(right_linear())
        reasoner.insert_edge(a, b)
        reasoner.insert_edge(b, c)
        reasoner.delete_edge(a, b)
        assert not reasoner.certain((a, c))
        assert reasoner.certain((b, c))
