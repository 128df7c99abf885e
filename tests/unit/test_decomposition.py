"""Unit tests for query decomposition (Definition 4.4): the production
``connected_components`` / ``restrict_output``, assembled into subqueries
and checked by the test-side ``is_decomposition``."""

from repro.core.atoms import Atom
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.lang.parser import parse_query
from repro.prooftree.decomposition import connected_components, restrict_output

from ..property.reference_prooftree import finest_decomposition, is_decomposition

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


class TestComponents:
    def test_shared_non_output_variable_links(self):
        q = parse_query("q() :- r(X,Y), s(Y,Z).")
        components = connected_components(q.atoms, set())
        assert len(components) == 1

    def test_output_variable_does_not_link(self):
        q = parse_query("q(X) :- r(X,Y), t(X,Z).")
        components = connected_components(q.atoms, {X})
        assert len(components) == 2

    def test_ground_atoms_are_singletons(self):
        a = Constant("a")
        atoms = (Atom("r", (a, a)), Atom("s", (a,)))
        components = connected_components(atoms, set())
        assert len(components) == 2

    def test_transitive_linking(self):
        q = parse_query("q() :- r(X,Y), s(Y,Z), t(Z,W).")
        assert len(connected_components(q.atoms, set())) == 1

    def test_duplicate_atoms_merged(self):
        atoms = (Atom("r", (X,)), Atom("r", (X,)))
        components = connected_components(atoms, set())
        assert len(components) == 1
        assert len(components[0]) == 1


class TestDecompose:
    def test_outputs_restricted_in_order(self):
        q = parse_query("q(X, W) :- r(X,Y), s(W).")
        children = finest_decomposition(q)
        by_pred = {c.atoms[0].predicate: c for c in children}
        assert by_pred["r"].output == (X,)
        assert by_pred["s"].output == (W,)

    def test_single_component_decomposes_to_itself(self):
        q = parse_query("q(X) :- r(X,Y), s(Y).")
        children = finest_decomposition(q)
        assert len(children) == 1
        assert set(children[0].atoms) == set(q.atoms)


class TestIsDecomposition:
    def test_valid_decomposition_accepted(self):
        q = parse_query("q(X) :- r(X,Y), t(X,Z).")
        assert is_decomposition(q, finest_decomposition(q))

    def test_atoms_must_be_covered(self):
        q = parse_query("q(X) :- r(X,Y), t(X,Z).")
        children = finest_decomposition(q)
        assert not is_decomposition(q, children[:1])

    def test_split_of_non_output_variable_rejected(self):
        q = parse_query("q() :- r(X,Y), s(Y).")
        bad = [
            ConjunctiveQuery((), (q.atoms[0],)),
            ConjunctiveQuery((), (q.atoms[1],)),
        ]
        assert not is_decomposition(q, bad)

    def test_overlapping_decomposition_accepted(self):
        # Definition 4.4 requires covering, not partitioning.
        q = parse_query("q(X) :- r(X,Y), t(X,Z).")
        children = finest_decomposition(q)
        overlapping = children + [children[0]]
        assert is_decomposition(q, overlapping)

    def test_wrong_output_restriction_rejected(self):
        q = parse_query("q(X) :- r(X,Y), t(X,Z).")
        r_atom, t_atom = q.atoms
        bad = [
            ConjunctiveQuery((), (r_atom,)),  # should carry output X
            ConjunctiveQuery((X,), (t_atom,)),
        ]
        assert not is_decomposition(q, bad)

    def test_restrict_output_keeps_order_and_duplicates(self):
        q = parse_query("q(X, Y) :- r(X,Y).")
        assert restrict_output((X, Y, X), q.atoms) == (X, Y, X)
        assert restrict_output((Y,), (Atom("s", (X,)),)) == ()
