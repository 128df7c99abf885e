"""Unit tests for query specialization (Definition 4.5)."""

import pytest

from repro.core.terms import Variable
from repro.lang.parser import parse_query
from repro.prooftree.specialization import enumerate_specializations, specialize

from ..property.reference_prooftree import is_specialization

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestSpecialize:
    def test_promote_appends_outputs(self):
        q = parse_query("q(X) :- r(X,Y), s(Y,Z).")
        special = specialize(q, promote=(Y,))
        assert special.output == (X, Y)
        assert set(special.atoms) == set(q.atoms)

    def test_collapse_onto_output(self):
        q = parse_query("q(X) :- r(X,Y).")
        special = specialize(q, collapse={Y: X})
        assert special.output == (X,)
        assert special.atoms[0].args == (X, X)

    def test_collapse_onto_promoted(self):
        q = parse_query("q(X) :- r(X,Y), s(Y,Z).")
        special = specialize(q, promote=(Y,), collapse={Z: Y})
        assert special.output == (X, Y)
        assert special.atoms[1].args == (Y, Y)

    def test_promote_must_be_non_output(self):
        q = parse_query("q(X) :- r(X,Y).")
        with pytest.raises(ValueError, match="non-output"):
            specialize(q, promote=(X,))

    def test_collapse_source_disjoint_from_promote(self):
        q = parse_query("q(X) :- r(X,Y), s(Y,Z).")
        with pytest.raises(ValueError, match="disjoint"):
            specialize(q, promote=(Y,), collapse={Y: X})

    def test_collapse_target_must_be_output(self):
        q = parse_query("q(X) :- r(X,Y), s(Y,Z).")
        with pytest.raises(ValueError, match="target"):
            specialize(q, collapse={Y: Z})

    def test_identity_specialization(self):
        q = parse_query("q(X) :- r(X,Y).")
        assert specialize(q).output == q.output


class TestEnumerate:
    def test_single_steps(self):
        q = parse_query("q(X) :- r(X,Y).")
        steps = list(enumerate_specializations(q))
        # promote Y, collapse Y→X
        assert len(steps) == 2

    def test_no_non_output_variables(self):
        q = parse_query("q(X,Y) :- r(X,Y).")
        assert list(enumerate_specializations(q)) == []


class TestIsSpecialization:
    def test_promote_detected(self):
        q = parse_query("q(X) :- r(X,Y).")
        assert is_specialization(q, specialize(q, promote=(Y,)))

    def test_collapse_detected(self):
        q = parse_query("q(X) :- r(X,Y).")
        assert is_specialization(q, specialize(q, collapse={Y: X}))

    def test_unrelated_query_rejected(self):
        q = parse_query("q(X) :- r(X,Y).")
        other = parse_query("q(X) :- s(X,Y).")
        assert not is_specialization(q, other)

    def test_changed_outputs_rejected(self):
        q = parse_query("q(X) :- r(X,Y).")
        reordered = parse_query("q(Y) :- r(X,Y).")
        assert not is_specialization(q, reordered)

    def test_composed_specialization_detected(self):
        q = parse_query("q(X) :- r(X,Y), s(Y,Z).")
        special = specialize(q, promote=(Y,), collapse={Z: X})
        assert is_specialization(q, special)
