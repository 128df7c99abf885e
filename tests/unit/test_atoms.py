"""Unit tests for atoms, positions, and schema inference."""

from dataclasses import dataclass

import pytest

from repro.core.atoms import Atom, Position, atoms_variables, schema_of
from repro.core.spans import AtomSpan, Span
from repro.core.terms import Constant, Null, Variable

X, Y = Variable("X"), Variable("Y")
a, b = Constant("a"), Constant("b")


class TestAtom:
    def test_args_coerced_to_tuple(self):
        atom = Atom("r", [X, a])  # type: ignore[arg-type]
        assert isinstance(atom.args, tuple)

    def test_variables_constants_nulls(self):
        atom = Atom("r", (X, a, Null(0), X))
        assert atom.variables() == {X}
        assert atom.constants() == {a}
        assert atom.nulls() == {Null(0)}

    def test_is_fact(self):
        assert Atom("r", (a, b)).is_fact()
        assert not Atom("r", (a, X)).is_fact()
        assert not Atom("r", (a, Null(0))).is_fact()

    def test_is_ground_allows_nulls(self):
        assert Atom("r", (a, Null(0))).is_ground()
        assert not Atom("r", (a, X)).is_ground()

    def test_positions_are_one_based(self):
        atom = Atom("r", (X, Y))
        positions = dict(atom.positions())
        assert positions[Position("r", 1)] == X
        assert positions[Position("r", 2)] == Y

    def test_positions_of_term(self):
        atom = Atom("r", (X, Y, X))
        assert atom.positions_of(X) == {Position("r", 1), Position("r", 3)}

    def test_equality_and_hash(self):
        assert Atom("r", (X,)) == Atom("r", (X,))
        assert Atom("r", (X,)) != Atom("s", (X,))
        assert len({Atom("r", (X,)), Atom("r", (X,))}) == 1

    def test_span_stays_out_of_equality_and_hash(self):
        here = AtomSpan(Span.point(1, 1, 4))
        there = AtomSpan(Span.point(7, 3, 4), (Span.point(7, 5),))
        spanned = [Atom("r", (X, a), here), Atom("r", (X, a), there)]
        plain = Atom("r", (X, a))
        assert spanned[0] == spanned[1] == plain
        assert hash(spanned[0]) == hash(spanned[1]) == hash(plain)
        assert len({*spanned, plain}) == 1
        assert Atom("r", (X, a), here) != Atom("r", (a, X), here)

    def test_hash_is_computed_once(self):
        calls = []

        @dataclass(frozen=True, slots=True, eq=False)
        class CountingNull(Null):
            def __hash__(self):
                calls.append(self.label)
                return hash(self.label)

        atom = Atom("r", (CountingNull(1), a))
        assert calls == [1]
        for _ in range(3):
            hash(atom)
            assert atom in {atom}
        assert calls == [1]

    def test_str(self):
        assert str(Atom("r", (X, a))) == "r(X,a)"


class TestHelpers:
    def test_atoms_variables(self):
        atoms = [Atom("r", (X, a)), Atom("s", (Y,))]
        assert atoms_variables(atoms) == {X, Y}

    def test_schema_of(self):
        atoms = [Atom("r", (X, a)), Atom("s", (Y,))]
        assert schema_of(atoms) == {"r": 2, "s": 1}

    def test_schema_of_rejects_arity_conflict(self):
        with pytest.raises(ValueError, match="arities"):
            schema_of([Atom("r", (X,)), Atom("r", (X, Y))])
