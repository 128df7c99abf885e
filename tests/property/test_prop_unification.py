"""Property-based tests for unification: the production ``UnionFind``,
driven as chunk resolution drives it."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.substitution import Substitution
from repro.core.terms import Variable
from .reference_prooftree import mgu
from .strategies import atoms, constants


def mgu_atoms(left, right):
    return mgu([(left, right)])


@given(atoms(), atoms())
@settings(max_examples=200)
def test_mgu_unifies(left, right):
    """If an MGU exists, applying it makes the atoms equal."""
    mgu = mgu_atoms(left, right)
    if mgu is not None:
        assert mgu.apply_atom(left) == mgu.apply_atom(right)


@given(atoms(), atoms())
@settings(max_examples=200)
def test_mgu_idempotent(left, right):
    """MGUs are idempotent: applying twice equals applying once."""
    mgu = mgu_atoms(left, right)
    if mgu is not None:
        once = mgu.apply_atom(left)
        twice = mgu.apply_atom(once)
        assert once == twice


@given(atoms())
@settings(max_examples=100)
def test_mgu_with_self_is_identity_modulo_nothing(atom):
    """Every atom unifies with itself without moving any term."""
    mgu = mgu_atoms(atom, atom)
    assert mgu is not None
    assert mgu.apply_atom(atom) == atom


@given(atoms(), atoms(), st.data())
@settings(max_examples=200)
def test_mgu_most_general(left, right, data):
    """Any unifier factors through the MGU (γ = γ' ∘ γ_mgu).

    Witnessed contrapositively: if a random grounding unifies the atoms,
    then the MGU must exist, and the grounding must factor through it.
    """
    if left.predicate != right.predicate or left.arity != right.arity:
        return
    grounding = {}
    for atom in (left, right):
        for term in atom.args:
            if isinstance(term, Variable) and term not in grounding:
                grounding[term] = data.draw(constants())
    ground = Substitution(grounding)
    if ground.apply_atom(left) != ground.apply_atom(right):
        return
    mgu = mgu_atoms(left, right)
    assert mgu is not None, "a unifiable pair must have an MGU"
    # factor: applying the grounding after the MGU reproduces the
    # grounding's effect on both atoms
    via_mgu_left = ground.apply_atom(mgu.apply_atom(left))
    assert via_mgu_left == ground.apply_atom(left)
