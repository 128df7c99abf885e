"""Unit tests for search states and the successor generator (Section 4.3)."""

import pytest

from repro.core.atoms import Atom
from repro.core.terms import Constant, Variable
from repro.lang.parser import parse_program
from repro.reasoning.state import SearchStats, State, SuccessorGenerator

X, Y = Variable("X"), Variable("Y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def setup_tc():
    program, database = parse_program("""
        e(a,b). e(b,c).
        t(X,Y) :- e(X,Y).
        t(X,Z) :- e(X,Y), t(Y,Z).
    """)
    return program.single_head(), database


class TestState:
    def test_eager_drop_of_database_facts(self):
        _, database = setup_tc()
        state = State.make((Atom("e", (a, b)), Atom("t", (a, c))), database)
        assert all(atom.predicate == "t" for atom in state.atoms)

    def test_ground_non_fact_kept(self):
        _, database = setup_tc()
        state = State.make((Atom("e", (a, c)),), database)  # not in D
        assert state.width() == 1

    def test_accepting_state(self):
        _, database = setup_tc()
        state = State.make((Atom("e", (a, b)),), database)
        assert state.is_accepting()

    def test_canonical_identity(self):
        s1 = State.make((Atom("t", (X, Y)),))
        s2 = State.make((Atom("t", (Variable("P"), Variable("Q"))),))
        assert s1 == s2
        assert hash(s1) == hash(s2)


class TestSuccessorGenerator:
    def test_requires_single_head(self):
        program, database = parse_program("r(X,K), s(K) :- p(X).")
        with pytest.raises(ValueError, match="single-head"):
            SuccessorGenerator(database, program, 4)

    def test_only_guided_and_exhaustive_modes(self):
        program, database = setup_tc()
        with pytest.raises(ValueError, match="specialization mode"):
            SuccessorGenerator(database, program, 4, specialization="both")

    def test_resolution_successors(self):
        program, database = setup_tc()
        gen = SuccessorGenerator(database, program, width_bound=4)
        state = State.make((Atom("t", (a, c)),), database)
        successors = list(gen.resolutions(state))
        # base: {e(a,c)} (ground, not in D → kept); step: {e(a,u), t(u,c)}
        assert len(successors) == 2

    def test_width_bound_rejects(self):
        program, database = setup_tc()
        stats = SearchStats()
        gen = SuccessorGenerator(database, program, width_bound=1, stats=stats)
        state = State.make((Atom("t", (a, c)),), database)
        successors = list(gen.resolutions(state))
        assert len(successors) == 1  # only the base-rule resolvent fits
        assert stats.width_rejections == 1

    def test_guided_specialization_binds_via_database(self):
        program, database = setup_tc()
        gen = SuccessorGenerator(database, program, 4, specialization="guided")
        state = State.make((Atom("e", (a, X)),), database)
        successors = list(gen.specializations(state))
        # e(a, X) matches only e(a,b) → X:=b → atom drops → accepting
        assert len(successors) == 1
        assert successors[0].is_accepting()

    def test_exhaustive_specialization_covers_domain(self):
        program, database = setup_tc()
        gen = SuccessorGenerator(database, program, 4, specialization="exhaustive")
        state = State.make((Atom("t", (X, X)),), database)
        successors = set(gen.specializations(state))
        # X → a | b | c
        assert len(successors) == 3

    def test_dead_state_detection(self):
        program, database = setup_tc()
        gen = SuccessorGenerator(database, program, 4)
        # e(c, X): c has no outgoing edge; e is extensional → dead.
        dead = State.make((Atom("e", (c, X)),), database)
        assert gen.is_dead(dead)
        # t(c, X): no chase atom t(c, ·) exists, so the star-abstraction
        # oracle proves this state dead as well.
        assert gen.is_dead(State.make((Atom("t", (c, X)),), database))

    def test_dead_state_detection_without_oracle(self):
        program, database = setup_tc()
        weak = SuccessorGenerator(database, program, 4, use_oracle=False)
        # The weak check still kills unmatched extensional atoms ...
        assert weak.is_dead(State.make((Atom("e", (c, X)),), database))
        # ... but keeps intensional atoms alive: t could be derived.
        assert not weak.is_dead(State.make((Atom("t", (c, X)),), database))

    def test_successors_filter_dead(self):
        program, database = setup_tc()
        gen = SuccessorGenerator(database, program, 4)
        # resolving t(c,a) gives e(c,a) (dead) and e(c,u), t(u,a) (dead)
        state = State.make((Atom("t", (c, a)),), database)
        assert list(gen.successors(state)) == []

    def test_stats_accumulate(self):
        program, database = setup_tc()
        stats = SearchStats()
        gen = SuccessorGenerator(database, program, 4, stats=stats)
        state = State.make((Atom("t", (a, c)),), database)
        list(gen.successors(state))
        assert stats.expanded == 1
        assert stats.resolution_steps >= 2
