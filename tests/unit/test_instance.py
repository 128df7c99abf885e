"""Unit tests for instances, databases, and homomorphism search."""

import pytest

from repro.core.atoms import Atom
from repro.core.homomorphism import find_homomorphism, homomorphisms
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Null, Variable

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def brute_force(store, bound, arity=None):
    """The ``r`` atoms ``matching_bound`` must return, by a full scan."""
    return {
        atom for atom in store.by_predicate("r")
        if (arity is None or len(atom.args) == arity)
        and all(
            at <= len(atom.args) and atom.args[at - 1] == term
            for at, term in bound.items()
        )
    }


class TestInstance:
    def test_add_and_contains(self):
        inst = Instance()
        assert inst.add(Atom("r", (a, b)))
        assert not inst.add(Atom("r", (a, b)))  # duplicate
        assert Atom("r", (a, b)) in inst
        assert len(inst) == 1

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError, match="ground"):
            Instance().add(Atom("r", (X,)))

    def test_accepts_nulls(self):
        inst = Instance()
        inst.add(Atom("r", (a, Null(0))))
        assert len(inst) == 1

    def test_matching_uses_pattern(self):
        inst = Instance([Atom("r", (a, b)), Atom("r", (a, c)), Atom("r", (b, c))])
        assert len(list(inst.matching(Atom("r", (a, X))))) == 2
        assert len(list(inst.matching(Atom("r", (X, Y))))) == 3
        assert len(list(inst.matching(Atom("r", (X, X))))) == 0

    def test_matching_repeated_variable(self):
        inst = Instance([Atom("r", (a, a)), Atom("r", (a, b))])
        assert list(inst.matching(Atom("r", (X, X)))) == [Atom("r", (a, a))]

    def test_active_domain(self):
        inst = Instance([Atom("r", (a, Null(0)))])
        assert inst.active_domain() == {a, Null(0)}
        assert inst.constants() == {a}
        assert inst.nulls() == {Null(0)}

    def test_with_predicate(self):
        inst = Instance([Atom("r", (a,)), Atom("s", (b,))])
        assert inst.with_predicate("r") == {Atom("r", (a,))}
        assert inst.with_predicate("missing") == set()

    def test_by_predicate_is_safe_against_mutation_while_consumed(self):
        """The FactStore contract the delta loops rely on: the iterator
        is a snapshot, so adding (or discarding) under it neither raises
        nor changes what it yields."""
        inst = Instance([Atom("r", (a,)), Atom("r", (b,)), Atom("s", (b,))])
        seen = []
        for atom in inst.by_predicate("r"):
            seen.append(atom)
            inst.add(Atom("r", (Constant(f"new{len(seen)}"),)))
            inst.discard(Atom("r", (b,)))
        assert sorted(seen, key=str) == [Atom("r", (a,)), Atom("r", (b,))]
        assert inst.count("r") == 3
        assert list(inst.by_predicate("missing")) == []

    def test_matching_bound_is_a_filter_of_the_predicate_scan(self):
        """The index bucket is trusted on the position it is keyed on
        and only the other bound positions are compared: the result is
        still exactly the brute-force filter, across mixed arities under
        one name, positions past an atom's arity, absent terms and the
        empty bound."""
        inst = Instance([
            Atom("r", (a,)), Atom("r", (a, b)), Atom("r", (b, a)),
            Atom("r", (a, b, c)), Atom("r", (a, a, b)), Atom("r", (c, b, a)),
            Atom("r", (Null(0), b)), Atom("s", (a, b)),
        ])
        bounds = [
            {}, {1: a}, {2: b}, {1: a, 2: b}, {2: b, 1: a}, {3: a},
            {1: a, 3: b}, {3: c, 1: a, 2: b}, {4: a}, {1: a, 4: a},
            {1: Constant("absent")}, {2: b, 1: Constant("absent")},
            {1: Null(0)}, {2: b, 1: Null(0)},
        ]
        for bound in bounds:
            for arity in (None, 1, 2, 3, 4):
                got = list(inst.matching_bound("r", bound, arity))
                assert len(got) == len(set(got))
                assert set(got) == brute_force(inst, bound, arity), (bound, arity)
        assert list(inst.matching_bound("missing", {1: a})) == []
        assert list(inst.matching_bound("missing", {})) == []

    def test_matching_bound_is_a_snapshot_while_consumed(self):
        """Adding under a probe that is being consumed neither raises nor
        changes what it yields — bound and unbound, bucket and scan."""
        for bound in ({1: a}, {1: a, 2: b}, {}):
            inst = Instance([Atom("r", (a, b)), Atom("r", (a, c))])
            want = brute_force(inst, bound, 2)
            seen = []
            for atom in inst.matching_bound("r", bound, 2):
                seen.append(atom)
                inst.add(Atom("r", (a, Constant(f"new{len(seen)}"))))
                inst.add(Atom("r", (a, b, Constant(f"new{len(seen)}"))))
            assert set(seen) == want and len(seen) == len(want)
            assert inst.count("r") == 2 + 2 * len(want)

    def test_copy_is_independent(self):
        inst = Instance([Atom("r", (a,))])
        clone = inst.copy()
        clone.add(Atom("r", (b,)))
        assert len(inst) == 1 and len(clone) == 2

    @pytest.mark.parametrize("cls", [Instance, Database])
    def test_copy_of_a_frozen_store_is_mutable_and_shares_no_container(
        self, cls
    ):
        """The copy is structural (sets and both indexes copied, not
        rebuilt), so each of the three containers must be its own."""
        r_ab, r_ac, s_b = Atom("r", (a, b)), Atom("r", (a, c)), Atom("s", (b,))
        original = cls([r_ab, s_b]).freeze()
        clone = original.copy()
        assert type(clone) is cls and not clone.frozen

        def state(store):
            return (
                set(store),
                sorted(map(str, store.matching_bound("r", {1: a}))),
                store.count("r"), store.count("s"), store.predicates(),
            )

        before = state(original)
        assert state(clone) == before
        # Adding to / emptying a bucket of the clone leaves the original.
        assert clone.add(r_ac) and clone.discard(s_b)
        assert state(original) == before
        assert state(clone) == (
            {r_ab, r_ac}, [str(r_ab), str(r_ac)], 2, 0, {"r"},
        )
        assert list(clone.matching_bound("s", {1: b})) == []
        # ... and the other way round, through a second mutable copy.
        other = clone.copy()
        assert other.discard(r_ab) and other.discard(r_ac) and other.add(s_b)
        assert state(other) == ({s_b}, [], 0, 1, {"s"})
        assert state(clone)[0] == {r_ab, r_ac} and clone.count("r") == 2
        assert list(other.matching_bound("r", {1: a})) == []


class TestDatabase:
    def test_rejects_nulls(self):
        with pytest.raises(ValueError, match="facts"):
            Database().add(Atom("r", (Null(0),)))

    def test_to_instance(self):
        db = Database([Atom("r", (a,))])
        inst = db.to_instance()
        inst.add(Atom("r", (Null(0),)))  # instances may hold nulls
        assert len(db) == 1


class TestHomomorphisms:
    def test_simple_match(self):
        inst = Instance([Atom("r", (a, b))])
        hom = find_homomorphism([Atom("r", (X, Y))], inst)
        assert hom is not None
        assert hom.apply_term(X) == a and hom.apply_term(Y) == b

    def test_join_through_shared_variable(self):
        inst = Instance([Atom("r", (a, b)), Atom("s", (b, c))])
        hom = find_homomorphism([Atom("r", (X, Y)), Atom("s", (Y, Z))], inst)
        assert hom is not None
        assert hom.apply_term(Y) == b

    def test_no_match(self):
        inst = Instance([Atom("r", (a, b)), Atom("s", (c, c))])
        assert find_homomorphism([Atom("r", (X, Y)), Atom("s", (Y, Z))], inst) is None

    def test_constants_rigid(self):
        inst = Instance([Atom("r", (a, b))])
        assert find_homomorphism([Atom("r", (b, X))], inst) is None

    def test_all_homomorphisms_enumerated(self):
        inst = Instance([Atom("e", (a, b)), Atom("e", (b, c)), Atom("e", (a, c))])
        homs = list(homomorphisms([Atom("e", (X, Y))], inst))
        assert len(homs) == 3

    def test_seed_restricts_search(self):
        inst = Instance([Atom("e", (a, b)), Atom("e", (b, c))])
        homs = list(homomorphisms([Atom("e", (X, Y))], inst, seed={X: b}))
        assert len(homs) == 1
        assert homs[0].apply_term(Y) == c

    def test_non_injective_homomorphism_allowed(self):
        inst = Instance([Atom("e", (a, a))])
        hom = find_homomorphism([Atom("e", (X, Y))], inst)
        assert hom is not None
        assert hom.apply_term(X) == hom.apply_term(Y) == a
