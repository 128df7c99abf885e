"""Unit tests for affected positions (Section 3)."""

from repro.analysis.affected import affected_positions
from repro.core.atoms import Position
from repro.lang.parser import parse_program


def affected_of(text: str):
    program, _ = parse_program(text)
    return affected_positions(program)


class TestBaseCase:
    def test_existential_position_is_affected(self):
        aff = affected_of("r(X, Z) :- p(X).")
        assert Position("r", 2) in aff
        assert Position("r", 1) not in aff
        assert Position("p", 1) not in aff

    def test_full_program_has_no_affected_positions(self):
        aff = affected_of("""
            t(X, Y) :- e(X, Y).
            t(X, Z) :- t(X, Y), e(Y, Z).
        """)
        assert aff == set()


class TestPropagation:
    def test_null_propagation_cycle(self):
        # The paper's core example: P(x) → ∃z R(x,z); R(x,y) → P(y).
        aff = affected_of("""
            r(X, Z) :- p(X).
            p(Y) :- r(X, Y).
        """)
        # z lands in r[2]; y read from r[2] only → p[1] affected;
        # x read from p[1] only → r[1] affected.
        assert aff == {Position("r", 1), Position("r", 2), Position("p", 1)}

    def test_harmless_occurrence_blocks_propagation(self):
        # y also occurs at a non-affected position (s[1]), so it is
        # harmless and p[1] stays unaffected.
        aff = affected_of("""
            r(X, Z) :- p(X).
            p(Y) :- r(X, Y), s(Y).
        """)
        assert Position("p", 1) not in aff
        assert aff == {Position("r", 2)}

    def test_example_33_affected_positions(self):
        from repro.benchsuite.dbpedia import example_33_program

        aff = affected_positions(example_33_program())
        # The paper: frontier variables at Type[1], Triple[1], Triple[3]
        # are dangerous — those positions (where nulls can appear) are
        # affected; class/property positions are not.
        assert Position("triple", 3) in aff
        assert Position("triple", 1) in aff
        assert Position("type", 1) in aff
        assert Position("type", 2) not in aff
        assert Position("triple", 2) not in aff
        assert Position("subClassStar", 1) not in aff
