"""Unit tests for the pluggable fact-storage subsystem."""

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Null, Variable
from repro.chase.runner import chase
from repro.datalog.seminaive import seminaive
from repro.lang.parser import parse_program, parse_query
from repro.storage import (
    BACKENDS,
    FactStore,
    ShardedStore,
    TermTable,
    deep_sizeof,
    make_store,
)

X, Y = Variable("X"), Variable("Y")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


class TestTermTable:
    def test_dense_ids_and_roundtrip(self):
        table = TermTable()
        assert table.intern(a) == 0
        assert table.intern(b) == 1
        assert table.intern(a) == 0  # idempotent
        assert table.term(0) == a and table.term(1) == b
        assert len(table) == 2
        assert a in table and c not in table
        assert table.id_of(c) is None

    def test_null_keeps_depth_bookkeeping(self):
        table = TermTable()
        deep = Null(7, depth=3)
        table.intern(deep)
        assert table.term(table.id_of(Null(7))).depth == 3


#: The backend names of the id-array store: one shard per relation, and
#: the default eight.
ID_ARRAY_BACKENDS = ("columnar", "sharded")


@pytest.mark.parametrize("backend", ID_ARRAY_BACKENDS)
class TestIdArrayStore:
    """Matching semantics of the id-array store, built through
    ``make_store`` under each of its backend names."""

    @staticmethod
    def indexes_built(store, predicate, arity):
        return sum(
            len(part.indexes) for _, part in store.parts(predicate, arity)
        )

    def test_add_contains_len_iter(self, backend):
        store = make_store(backend)
        assert store.add(Atom("r", (a, b)))
        assert not store.add(Atom("r", (a, b)))
        assert Atom("r", (a, b)) in store
        assert Atom("r", (b, a)) not in store
        assert len(store) == 1
        assert set(store) == {Atom("r", (a, b))}

    def test_rejects_non_ground(self, backend):
        with pytest.raises(ValueError, match="ground"):
            make_store(backend).add(Atom("r", (X,)))

    def test_accepts_nulls(self, backend):
        store = make_store(backend)
        store.add(Atom("r", (a, Null(0))))
        assert Atom("r", (a, Null(0))) in store
        assert store.nulls() == {Null(0)}

    def test_matching_mirrors_instance(self, backend):
        atoms = [Atom("r", (a, b)), Atom("r", (a, c)), Atom("r", (b, c))]
        store = make_store(backend, atoms)
        assert len(list(store.matching(Atom("r", (a, X))))) == 2
        assert len(list(store.matching(Atom("r", (X, Y))))) == 3
        assert len(list(store.matching(Atom("r", (X, X))))) == 0
        assert list(store.matching(Atom("missing", (X,)))) == []

    def test_matching_repeated_variable(self, backend):
        store = make_store(backend, [Atom("r", (a, a)), Atom("r", (a, b))])
        assert list(store.matching(Atom("r", (X, X)))) == [Atom("r", (a, a))]

    def test_matching_unknown_constant_is_empty(self, backend):
        store = make_store(backend, [Atom("r", (a, b))])
        assert list(store.matching(Atom("r", (d, X)))) == []

    def test_matching_bound_positions_are_one_based(self, backend):
        store = make_store(backend, [Atom("r", (a, b)), Atom("r", (b, a))])
        assert set(store.matching_bound("r", {1: a})) == {Atom("r", (a, b))}
        assert set(store.matching_bound("r", {2: a})) == {Atom("r", (b, a))}
        assert len(set(store.matching_bound("r", {}))) == 2

    def test_indexes_built_lazily(self, backend):
        store = make_store(backend, [Atom("r", (a, b)), Atom("r", (a, c))])
        assert self.indexes_built(store, "r", 2) == 0
        list(store.matching(Atom("r", (a, X))))
        assert self.indexes_built(store, "r", 2) == 1
        list(store.matching(Atom("r", (X, c))))
        assert self.indexes_built(store, "r", 2) == 2

    def test_index_maintained_incrementally_after_build(self, backend):
        store = make_store(backend, [Atom("r", (a, b))])
        list(store.matching(Atom("r", (a, X))))  # builds index on pos 1
        store.add(Atom("r", (a, c)))
        assert set(store.matching(Atom("r", (a, X)))) == {
            Atom("r", (a, b)), Atom("r", (a, c))
        }

    def test_count_and_predicates(self, backend):
        store = make_store(backend, [Atom("r", (a, b)), Atom("r", (b, c)),
                            Atom("s", (a,))])
        assert store.count() == 3
        assert store.count("r") == 2
        assert store.count("missing") == 0
        assert store.predicates() == {"r", "s"}

    def test_mixed_arity_predicate(self, backend):
        store = make_store(backend, [Atom("r", (a,)), Atom("r", (a, b))])
        assert len(store) == 2
        assert set(store.matching(Atom("r", (X,)))) == {Atom("r", (a,))}

    def test_memory_report_components(self, backend):
        store = make_store(backend, [Atom("r", (a, b)), Atom("r", (b, c))])
        report = store.memory_report()
        assert report.backend == "sharded"
        assert report.atom_count == 2
        assert report.term_count == 3
        assert set(report.components) == {"shards", "shard_map", "terms"}
        assert report.spilled == {"pages": 0}
        assert report.total_bytes > 0
        assert report.as_dict()["total_bytes"] == report.total_bytes

    def test_columnar_is_smaller_than_instance_in_bulk(self, backend):
        atoms = [
            Atom("e", (Constant(f"n{i}"), Constant(f"n{i + 1}")))
            for i in range(500)
        ]
        columnar = make_store(backend, atoms).memory_report().total_bytes
        instance = Instance(atoms).memory_report().total_bytes
        assert columnar < instance

    def test_copy_is_independent(self, backend):
        store = make_store(backend, [Atom("r", (a,))])
        clone = store.copy()
        clone.add(Atom("r", (b,)))
        assert len(store) == 1 and len(clone) == 2


class TestMakeStore:
    def test_backend_names(self):
        assert isinstance(make_store("instance"), Instance)
        columnar = make_store("columnar")
        assert isinstance(columnar, ShardedStore)
        assert columnar.num_shards == 1 and columnar.memory_budget is None
        assert make_store("sharded").num_shards > 1

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            make_store("bogus")

    def test_factory_and_instance_choices(self):
        made = make_store(ShardedStore, [Atom("r", (a,))])
        assert isinstance(made, ShardedStore) and len(made) == 1
        existing = Instance()
        assert make_store(existing, [Atom("r", (a,))]) is existing
        assert len(existing) == 1

    def test_instance_is_a_fact_store(self):
        assert isinstance(Instance(), FactStore)
        assert isinstance(Database(), FactStore)


PROGRAM = """
    e(a,b). e(b,c). e(c,d).
    t(X,Y) :- e(X,Y).
    t(X,Z) :- e(X,Y), t(Y,Z).
"""

EXISTENTIAL_PROGRAM = """
    person(a). person(b).
    parent(X,K) :- person(X).
    person(K) :- parent(X,K).
"""


class TestEnginesAcrossBackends:
    def test_chase_identical_across_backends(self):
        program, database = parse_program(PROGRAM)
        results = {
            backend: chase(database, program, store=backend)
            for backend in BACKENDS
        }
        reference = results["instance"]
        assert reference.saturated
        for backend, result in results.items():
            assert result.saturated, backend
            assert result.fired == reference.fired, backend
            assert set(result.instance) == set(reference.instance), backend

    def test_chase_with_nulls_across_backends(self):
        program, database = parse_program(EXISTENTIAL_PROGRAM)
        for backend in BACKENDS:
            result = chase(
                database, program, store=backend, max_atoms=50
            )
            assert any(atom.nulls() for atom in result.instance), backend

    def test_seminaive_identical_across_backends(self):
        program, database = parse_program(PROGRAM)
        query = parse_query("q(X,Y) :- t(X,Y).")
        reference = seminaive(database, program)
        for backend in BACKENDS:
            result = seminaive(database, program, store=backend)
            assert result.rounds == reference.rounds, backend
            assert result.derived == reference.derived, backend
            assert result.considered == reference.considered, backend
            assert result.evaluate(query) == reference.evaluate(query), backend


class TestDeepSizeof:
    def test_shared_seen_prevents_double_counting(self):
        shared = [1, 2, 3]
        seen: set[int] = set()
        first = deep_sizeof({"x": shared}, seen)
        second = deep_sizeof({"y": shared}, seen)
        assert first > second  # shared list charged only once

    def test_counts_slotted_objects(self):
        assert deep_sizeof(Atom("r", (a, b))) > 0


class TestDiscard:
    """Retraction support: observational equivalence across backends."""

    ATOMS = [
        Atom("r", (a, b)), Atom("r", (a, c)), Atom("r", (b, c)),
        Atom("s", (a,)), Atom("s", (b,)),
    ]

    def observe(self, store):
        return {
            "atoms": set(store),
            "len": len(store),
            "predicates": store.predicates(),
            "counts": {p: store.count(p) for p in ("r", "s", "missing")},
            "r_a_probe": set(store.matching(Atom("r", (a, X)))),
            "contains": [atom in store for atom in self.ATOMS],
            "domain": store.active_domain(),
        }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_discard_mirrors_instance_semantics(self, backend):
        reference = Instance(self.ATOMS)
        store = make_store(backend, self.ATOMS)
        for atom in (Atom("r", (a, b)), Atom("s", (b,)),
                     Atom("missing", (a,)), Atom("r", (a, b))):
            assert store.discard(atom) == reference.discard(atom)
        assert self.observe(store) == self.observe(reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_discard_then_readd_roundtrips(self, backend):
        store = make_store(backend, self.ATOMS)
        assert store.discard(Atom("r", (a, b)))
        assert Atom("r", (a, b)) not in store
        assert store.add(Atom("r", (a, b)))
        assert self.observe(store) == self.observe(Instance(self.ATOMS))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_discard_all_counts_present_only(self, backend):
        store = make_store(backend, self.ATOMS)
        removed = store.discard_all(
            [Atom("r", (a, b)), Atom("missing", (a,)), Atom("r", (a, c))]
        )
        assert removed == 2
        assert len(store) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interleaved_mutation_keeps_indexes_coherent(self, backend):
        """Probe (building lazy indexes), mutate, probe again."""
        store = make_store(backend, self.ATOMS)
        assert len(set(store.matching(Atom("r", (a, X))))) == 2  # build
        store.discard(Atom("r", (a, c)))
        store.add(Atom("r", (a, d)))
        store.discard(Atom("r", (b, c)))
        expected = {Atom("r", (a, b)), Atom("r", (a, d))}
        assert set(store.matching(Atom("r", (a, X)))) == {
            Atom("r", (a, b)), Atom("r", (a, d))
        }
        assert set(store.by_predicate("r")) == expected
        assert store.count("r") == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_probe_iteration_interleaved_with_discard(self, backend):
        """Regression: a suspended ``matching_bound`` generator must
        survive ``discard`` (id-array swap-remove) without yielding a
        wrong atom, a duplicate, or raising IndexError.  Backends may
        differ on whether a concurrently discarded atom still appears
        (snapshot vs lazy tombstone filtering), but every yielded atom
        must genuinely match the probe and every never-discarded match
        must be yielded."""
        matching = [Atom("r", (a, Constant(f"y{i}"))) for i in range(6)]
        atoms = matching + [Atom("r", (b, c))]
        store = make_store(backend, atoms)
        # No warm-up probe: the first probe of a run is the one that
        # builds the lazy index the bug read rows through.
        probe = store.matching_bound("r", {1: a})
        got = [next(probe)]
        # Shrink the row list by three mid-iteration (stale high row
        # numbers go out of bounds; swap-remove moves survivors and the
        # non-matching last row under snapshotted numbers).
        discarded = {Atom("r", (b, c)), matching[4], matching[2]}
        for atom in discarded:
            assert store.discard(atom)
        got.extend(probe)
        assert len(got) == len(set(got))  # no duplicates
        for atom in got:
            assert atom.args[0] == a, f"probe yielded non-matching {atom}"
        assert set(matching) - discarded <= set(got) <= set(matching)

    def test_columnar_probe_no_wrong_atom_after_swap_remove(self):
        """Regression: swap-remove used to move the *last* row under a
        snapshotted row number, making the suspended probe yield an
        atom that does not match the probe position.  Probed on the
        partition key and off it, on both id-array backends."""
        wrong = Atom("r", (b, d))
        cases = (
            ({1: a}, {Atom("r", (a, b)), Atom("r", (a, c))}),
            ({2: c}, {Atom("r", (a, c)), Atom("r", (b, c))}),
        )
        for backend in ID_ARRAY_BACKENDS:
            for bound, matches in cases:
                store = make_store(backend, sorted(matches, key=str) + [wrong])
                probe = store.matching_bound("r", bound)
                first = next(probe)
                # Remove the still-pending matching row: the last row
                # swaps into its slot, where the old lazy reader
                # picked it up.
                store.discard((matches - {first}).pop())
                rest = list(probe)
                assert wrong not in rest, (backend, bound)
                assert set([first] + rest) == matches, (backend, bound)

    def test_columnar_swap_remove_keeps_last_row_reachable(self):
        atoms = [Atom("r", (Constant(f"x{i}"), Constant(f"y{i}")))
                 for i in range(10)]
        survivors = set(atoms) - {atoms[3], atoms[0]}
        for backend in ID_ARRAY_BACKENDS:
            store = make_store(backend)
            store.add_all(atoms)
            # build both position indexes, then delete from the middle
            assert set(store.matching(Atom("r", (Constant("x3"), Y))))
            assert set(store.matching(Atom("r", (X, Constant("y7")))))
            store.discard(atoms[3])
            store.discard(atoms[0])
            assert set(store) == survivors, backend
            for atom in survivors:
                assert set(store.matching(atom)) == {atom}, backend
                assert set(store.matching(Atom("r", (X, atom.args[1])))) == {
                    atom
                }, backend
