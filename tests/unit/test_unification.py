"""Unit tests for MGU computation (flat syntactic unification): the
production ``UnionFind``, driven as chunk resolution drives it."""


from repro.core.atoms import Atom
from repro.core.terms import Constant, Null, Variable
from repro.core.unification import UnionFind

from ..property.reference_prooftree import mgu as mgu_pairs


def mgu_atoms(left, right):
    return mgu_pairs([(left, right)])


X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")
a, b = Constant("a"), Constant("b")


class TestMguAtoms:
    def test_variable_to_constant(self):
        mgu = mgu_atoms(Atom("r", (X, Y)), Atom("r", (a, b)))
        assert mgu is not None
        assert mgu.apply_term(X) == a
        assert mgu.apply_term(Y) == b

    def test_variable_to_variable(self):
        mgu = mgu_atoms(Atom("r", (X,)), Atom("r", (Y,)))
        assert mgu is not None
        assert mgu.apply_term(X) == mgu.apply_term(Y)

    def test_constant_clash(self):
        assert mgu_atoms(Atom("r", (a,)), Atom("r", (b,))) is None

    def test_predicate_mismatch(self):
        assert mgu_atoms(Atom("r", (X,)), Atom("s", (X,))) is None

    def test_arity_mismatch(self):
        assert mgu_atoms(Atom("r", (X,)), Atom("r", (X, Y))) is None

    def test_repeated_variable_propagates(self):
        mgu = mgu_atoms(Atom("r", (X, X)), Atom("r", (a, Y)))
        assert mgu is not None
        assert mgu.apply_term(Y) == a

    def test_repeated_variable_clash(self):
        assert mgu_atoms(Atom("r", (X, X)), Atom("r", (a, b))) is None

    def test_null_behaves_rigidly(self):
        n = Null(0)
        mgu = mgu_atoms(Atom("r", (X,)), Atom("r", (n,)))
        assert mgu is not None and mgu.apply_term(X) == n
        assert mgu_atoms(Atom("r", (Null(0),)), Atom("r", (Null(1),))) is None

    def test_mgu_is_most_general(self):
        # The MGU of r(X, Y) and r(Y, X) merges X and Y but maps to a
        # variable, not to any constant.
        mgu = mgu_atoms(Atom("r", (X, Y)), Atom("r", (Y, X)))
        assert mgu is not None
        image = mgu.apply_term(X)
        assert isinstance(image, Variable)
        assert mgu.apply_term(Y) == image


class TestMguPairs:
    def test_simultaneous_unification(self):
        # Unify both r(X, b) and r(a, Y) with r(U, V) at once.
        U, V = Variable("U"), Variable("V")
        head = Atom("r", (U, V))
        mgu = mgu_pairs([(Atom("r", (X, b)), head), (Atom("r", (a, Y)), head)])
        assert mgu is not None
        assert mgu.apply_term(X) == a
        assert mgu.apply_term(Y) == b

    def test_simultaneous_clash(self):
        U = Variable("U")
        head = Atom("r", (U,))
        assert mgu_pairs([(Atom("r", (a,)), head), (Atom("r", (b,)), head)]) is None


class TestUnionFind:
    def test_rigid_conflict_detected(self):
        uf = UnionFind()
        assert uf.union(X, a)
        assert not uf.union(X, b)

    def test_transitive_merge(self):
        uf = UnionFind()
        uf.union(X, Y)
        uf.union(Y, Z)
        assert uf.find(X) == uf.find(Z)

    def test_rigid_of(self):
        uf = UnionFind()
        uf.union(X, Y)
        assert uf.rigid_of(X) is None
        uf.union(Y, a)
        assert uf.rigid_of(X) == a

    def test_to_substitution_deterministic(self):
        uf = UnionFind()
        uf.union(Y, X)
        subst = uf.to_substitution()
        # The representative is the min-name variable of the class.
        assert subst.apply_term(Y) == X
