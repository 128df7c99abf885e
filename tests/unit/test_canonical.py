"""Unit tests for canonical renaming of CQ bodies."""

import itertools

from repro.core.atoms import Atom
from repro.core.terms import Constant, Variable
from repro.lang.parser import parse_query
from repro.prooftree.canonical import canonical_form, canonical_variable

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")
a, b = Constant("a"), Constant("b")


class TestCanonicalForm:
    def test_renaming_invariance(self):
        q1 = parse_query("q() :- r(X,Y), t(Y,Z), t(Z,W).")
        q2 = parse_query("q() :- t(B,C), r(A,B), t(C,D).")
        assert canonical_form(q1.atoms) == canonical_form(q2.atoms)

    def test_structure_distinguished(self):
        chain = parse_query("q() :- t(X,Y), t(Y,Z).")
        fork = parse_query("q() :- t(X,Y), t(X,Z).")
        assert canonical_form(chain.atoms) != canonical_form(fork.atoms)

    def test_atom_order_irrelevant(self):
        atoms = (Atom("r", (X, Y)), Atom("s", (Y, Z)), Atom("u", (Z,)))
        base = canonical_form(atoms)
        for perm in itertools.permutations(atoms):
            assert canonical_form(perm) == base

    def test_constants_frozen(self):
        q1 = parse_query("q() :- r(a, X).")
        q2 = parse_query("q() :- r(b, X).")
        assert canonical_form(q1.atoms) != canonical_form(q2.atoms)

    def test_frozen_variables_not_renamed(self):
        atoms = (Atom("r", (X, Y)),)
        form = canonical_form(atoms, frozen={X})
        assert form[0].args[0] == X
        assert form[0].args[1] == canonical_variable(0)  # Y renamed

    def test_frozen_variables_distinguish(self):
        # With X frozen, r(X,Y) and r(Z,Y) differ (Z is renameable).
        f1 = canonical_form((Atom("r", (X, Y)),), frozen={X})
        f2 = canonical_form((Atom("r", (Z, Y)),), frozen={X})
        assert f1 != f2

    def test_duplicates_merge(self):
        assert len(canonical_form((Atom("r", (X,)), Atom("r", (X,))))) == 1

    def test_repeated_variable_pattern_kept(self):
        f1 = canonical_form((Atom("r", (X, X)),))
        f2 = canonical_form((Atom("r", (X, Y)),))
        assert f1 != f2

    def test_hard_tie_case(self):
        # Two identical-signature atoms whose resolution order matters:
        # the canonical form must still be order-invariant.
        atoms1 = (Atom("e", (X, Y)), Atom("e", (Y, Z)), Atom("e", (Z, X)))
        atoms2 = (Atom("e", (Z, X)), Atom("e", (X, Y)), Atom("e", (Y, Z)))
        assert canonical_form(atoms1) == canonical_form(atoms2)

    def test_canonical_of_canonical_is_identity(self):
        q = parse_query("q() :- r(X,Y), t(Y,Z), r(Z,X).")
        once = canonical_form(q.atoms)
        twice = canonical_form(once)
        assert once == twice


class TestHelpers:
    def test_canonical_variable_roundtrip(self):
        # The pool is a fixed sequence of names no parsed variable uses.
        assert canonical_variable(7) == canonical_variable(7)
        pool = {canonical_variable(i) for i in range(8)}
        assert len(pool) == 8
        assert not pool & parse_query("q(X) :- r(X,Y), s(Y,Z).").variables()
