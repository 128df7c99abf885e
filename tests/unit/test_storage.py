"""Unit tests for the pluggable fact-storage subsystem."""

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.terms import Constant, Null, Variable
from repro.chase.runner import chase
from repro.datalog.seminaive import seminaive
from repro.engine.operators import OperatorNetwork
from repro.lang.parser import parse_program, parse_query
from repro.storage import (
    BACKENDS,
    ColumnarStore,
    DeltaOverlay,
    FactStore,
    FrozenStoreError,
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


class TestColumnarStore:
    def test_add_contains_len_iter(self):
        store = ColumnarStore()
        assert store.add(Atom("r", (a, b)))
        assert not store.add(Atom("r", (a, b)))
        assert Atom("r", (a, b)) in store
        assert Atom("r", (b, a)) not in store
        assert len(store) == 1
        assert set(store) == {Atom("r", (a, b))}

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError, match="ground"):
            ColumnarStore().add(Atom("r", (X,)))

    def test_accepts_nulls(self):
        store = ColumnarStore()
        store.add(Atom("r", (a, Null(0))))
        assert Atom("r", (a, Null(0))) in store
        assert store.nulls() == {Null(0)}

    def test_matching_mirrors_instance(self):
        atoms = [Atom("r", (a, b)), Atom("r", (a, c)), Atom("r", (b, c))]
        store = ColumnarStore(atoms)
        assert len(list(store.matching(Atom("r", (a, X))))) == 2
        assert len(list(store.matching(Atom("r", (X, Y))))) == 3
        assert len(list(store.matching(Atom("r", (X, X))))) == 0
        assert list(store.matching(Atom("missing", (X,)))) == []

    def test_matching_repeated_variable(self):
        store = ColumnarStore([Atom("r", (a, a)), Atom("r", (a, b))])
        assert list(store.matching(Atom("r", (X, X)))) == [Atom("r", (a, a))]

    def test_matching_unknown_constant_is_empty(self):
        store = ColumnarStore([Atom("r", (a, b))])
        assert list(store.matching(Atom("r", (d, X)))) == []

    def test_matching_bound_positions_are_one_based(self):
        store = ColumnarStore([Atom("r", (a, b)), Atom("r", (b, a))])
        assert set(store.matching_bound("r", {1: a})) == {Atom("r", (a, b))}
        assert set(store.matching_bound("r", {2: a})) == {Atom("r", (b, a))}
        assert len(set(store.matching_bound("r", {}))) == 2

    def test_indexes_built_lazily(self):
        store = ColumnarStore([Atom("r", (a, b)), Atom("r", (a, c))])
        assert store.stats["indexes_built"] == 0
        list(store.matching(Atom("r", (a, X))))
        assert store.stats["indexes_built"] == 1
        list(store.matching(Atom("r", (X, c))))
        assert store.stats["indexes_built"] == 2

    def test_probe_cache_hits_and_invalidation(self):
        store = ColumnarStore([Atom("r", (a, b)), Atom("r", (a, c))])
        first = list(store.matching(Atom("r", (a, X))))
        assert store.stats["cache_hits"] == 0
        second = list(store.matching(Atom("r", (a, X))))
        assert store.stats["cache_hits"] == 1
        assert first == second
        # A write changes the relation version: stale entries miss.
        store.add(Atom("r", (a, d)))
        third = set(store.matching(Atom("r", (a, X))))
        assert Atom("r", (a, d)) in third and len(third) == 3

    def test_index_maintained_incrementally_after_build(self):
        store = ColumnarStore([Atom("r", (a, b))])
        list(store.matching(Atom("r", (a, X))))  # builds index on pos 1
        store.add(Atom("r", (a, c)))
        assert set(store.matching(Atom("r", (a, X)))) == {
            Atom("r", (a, b)), Atom("r", (a, c))
        }

    def test_count_and_predicates(self):
        store = ColumnarStore([Atom("r", (a, b)), Atom("r", (b, c)),
                               Atom("s", (a,))])
        assert store.count() == 3
        assert store.count("r") == 2
        assert store.count("missing") == 0
        assert store.predicates() == {"r", "s"}

    def test_mixed_arity_predicate(self):
        store = ColumnarStore([Atom("r", (a,)), Atom("r", (a, b))])
        assert len(store) == 2
        assert set(store.matching(Atom("r", (X,)))) == {Atom("r", (a,))}

    def test_memory_report_components(self):
        store = ColumnarStore([Atom("r", (a, b)), Atom("r", (b, c))])
        report = store.memory_report()
        assert report.backend == "columnar"
        assert report.atom_count == 2
        assert report.term_count == 3
        assert set(report.components) == {
            "columns", "dedup", "indexes", "terms", "probe_cache"
        }
        assert report.total_bytes > 0
        assert report.as_dict()["total_bytes"] == report.total_bytes

    def test_columnar_is_smaller_than_instance_in_bulk(self):
        atoms = [
            Atom("e", (Constant(f"n{i}"), Constant(f"n{i + 1}")))
            for i in range(500)
        ]
        columnar = ColumnarStore(atoms).memory_report().total_bytes
        instance = Instance(atoms).memory_report().total_bytes
        assert columnar < instance

    def test_copy_is_independent(self):
        store = ColumnarStore([Atom("r", (a,))])
        clone = store.copy()
        clone.add(Atom("r", (b,)))
        assert len(store) == 1 and len(clone) == 2


class TestDeltaOverlay:
    def test_layering(self):
        overlay = DeltaOverlay(ColumnarStore([Atom("e", (a, b))]))
        assert len(overlay.base) == 1 and len(overlay.delta) == 0
        assert not overlay.add(Atom("e", (a, b)))  # already in base
        assert overlay.add(Atom("t", (a, b)))
        assert len(overlay.base) == 1
        assert len(overlay.delta) == 1 and len(overlay) == 2
        assert Atom("t", (a, b)) in overlay

    def test_construction_seals_the_base(self):
        base = ColumnarStore([Atom("r", (a, b))])
        overlay = DeltaOverlay(base)
        assert base.frozen and not overlay.frozen
        with pytest.raises(FrozenStoreError):
            base.add(Atom("r", (b, c)))
        with pytest.raises(FrozenStoreError):
            base.discard(Atom("r", (a, b)))
        assert overlay.add(Atom("r", (b, c)))  # the overlay stays writable

    def test_reads_span_both_layers(self):
        overlay = DeltaOverlay(ColumnarStore([Atom("r", (a, b))]))
        overlay.add(Atom("r", (a, c)))
        assert set(overlay.matching(Atom("r", (a, X)))) == {
            Atom("r", (a, b)), Atom("r", (a, c))
        }
        assert set(overlay.by_predicate("r")) == {
            Atom("r", (a, b)), Atom("r", (a, c))
        }
        assert overlay.count("r") == 2
        assert overlay.predicates() == {"r"}

    def test_composes_with_instance_base(self):
        overlay = DeltaOverlay(Instance([Atom("r", (a, b))]))
        overlay.add(Atom("r", (b, c)))
        assert len(overlay) == 2
        assert isinstance(overlay.delta, Instance)

    def test_memory_report_merges_layers(self):
        overlay = DeltaOverlay(ColumnarStore([Atom("r", (a, b))]))
        overlay.add(Atom("s", (c,)))
        report = overlay.memory_report()
        assert report.backend == "delta"
        assert report.atom_count == 2
        assert any(name.startswith("base.") for name in report.components)
        assert any(name.startswith("delta.") for name in report.components)


class TestMakeStore:
    def test_backend_names(self):
        assert isinstance(make_store("instance"), Instance)
        assert isinstance(make_store("columnar"), ColumnarStore)
        assert isinstance(make_store("sharded"), ShardedStore)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            make_store("bogus")

    def test_factory_and_instance_choices(self):
        made = make_store(ColumnarStore, [Atom("r", (a,))])
        assert isinstance(made, ColumnarStore) and len(made) == 1
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

    def test_operator_network_across_backends(self):
        program, database = parse_program(PROGRAM)
        network = OperatorNetwork(program)
        reference = network.run(database)
        for backend in BACKENDS:
            result = OperatorNetwork(program).run(database, store=backend)
            assert set(result.instance) == set(reference.instance), backend
            assert result.derived == reference.derived, backend


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
        survive ``discard`` (columnar swap-remove) without yielding a
        wrong atom, a duplicate, or raising IndexError.  Backends may
        differ on whether a concurrently discarded atom still appears
        (snapshot vs lazy tombstone filtering), but every yielded atom
        must genuinely match the probe and every never-discarded match
        must be yielded."""
        matching = [Atom("r", (a, Constant(f"y{i}"))) for i in range(6)]
        atoms = matching + [Atom("r", (b, c))]
        store = make_store(backend, atoms)
        # No warm-up probe: an identical earlier probe would park the
        # result in the columnar cache and mask the lazy-row-read bug.
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
        atom that does not match the probe position."""
        wrong = Atom("r", (b, c))
        store = ColumnarStore([Atom("r", (a, b)), Atom("r", (a, c)), wrong])
        probe = store.matching_bound("r", {1: a})
        first = next(probe)
        # Remove the still-pending matching row: (b, c) swaps into its
        # slot, where the old lazy reader picked it up.
        pending = ({Atom("r", (a, b)), Atom("r", (a, c))} - {first}).pop()
        store.discard(pending)
        rest = list(probe)
        assert wrong not in rest
        assert set([first] + rest) == {Atom("r", (a, b)), Atom("r", (a, c))}

    def test_partial_probe_drain_populates_cache(self):
        """Counter semantics, pinned: every probe is exactly one hit or
        one miss, and even an undrained probe fills the cache — the
        existence-check access pattern (probe one witness, abandon,
        repeat) must not re-scan and re-count a miss forever."""
        store = ColumnarStore(
            [Atom("r", (a, Constant(f"y{i}"))) for i in range(8)]
        )
        probe = store.matching_bound("r", {1: a})
        next(probe)
        probe.close()  # abandoned after one witness
        assert store.stats["cache_misses"] == 1
        assert store.stats["cache_hits"] == 0
        assert store.stats["cache_entries"] == 1
        for _ in range(3):  # repeated existence checks: all cache hits
            again = store.matching_bound("r", {1: a})
            next(again)
            again.close()
        assert store.stats["cache_misses"] == 1
        assert store.stats["cache_hits"] == 3
        # A full drain of the cached probe returns the complete result.
        assert len(list(store.matching_bound("r", {1: a}))) == 8
        assert store.stats["cache_misses"] == 1

    def test_probe_cache_disabled_never_caches(self):
        store = ColumnarStore(
            [Atom("r", (a, b)), Atom("r", (a, c))], probe_cache_size=0
        )
        assert len(list(store.matching_bound("r", {1: a}))) == 2
        assert len(list(store.matching_bound("r", {1: a}))) == 2
        assert store.stats["cache_entries"] == 0
        assert store.stats["cache_misses"] == 2
        assert store.stats["cache_hits"] == 0

    def test_columnar_probe_cache_invalidated_by_discard(self):
        store = ColumnarStore(self.ATOMS)
        first = set(store.matching(Atom("r", (a, X))))
        assert set(store.matching(Atom("r", (a, X)))) == first
        assert store.cache_hits >= 1
        store.discard(Atom("r", (a, c)))
        assert set(store.matching(Atom("r", (a, X)))) == {Atom("r", (a, b))}

    def test_columnar_swap_remove_keeps_last_row_reachable(self):
        store = ColumnarStore()
        atoms = [Atom("r", (Constant(f"x{i}"), Constant(f"y{i}")))
                 for i in range(10)]
        store.add_all(atoms)
        # build both position indexes, then delete from the middle
        assert set(store.matching(Atom("r", (Constant("x3"), Y))))
        assert set(store.matching(Atom("r", (X, Constant("y7")))))
        store.discard(atoms[3])
        store.discard(atoms[0])
        survivors = set(atoms) - {atoms[3], atoms[0]}
        assert set(store) == survivors
        for atom in survivors:
            assert set(store.matching(atom)) == {atom}

    def test_delta_overlay_tombstones_base_atoms(self):
        base = ColumnarStore([Atom("r", (a, b)), Atom("r", (b, c))])
        overlay = DeltaOverlay(base)
        overlay.add(Atom("r", (c, d)))
        assert overlay.discard(Atom("r", (a, b)))      # base → tombstone
        assert overlay.discard(Atom("r", (c, d)))      # delta → gone
        assert not overlay.discard(Atom("r", (a, b)))  # already dead
        assert Atom("r", (a, b)) not in overlay
        assert len(overlay) == 1
        assert len(base) == 2  # the base is never touched
        assert set(overlay.by_predicate("r")) == {Atom("r", (b, c))}

    def test_delta_overlay_readd_resurrects_base_atom(self):
        overlay = DeltaOverlay(ColumnarStore([Atom("r", (a, b))]))
        overlay.discard(Atom("r", (a, b)))
        assert overlay.add(Atom("r", (a, b)))
        assert Atom("r", (a, b)) in overlay
        assert len(overlay) == 1
        assert len(overlay.delta) == 0  # the base copy shows through

    def test_delta_overlay_memory_report_counts_tombstones(self):
        overlay = DeltaOverlay(ColumnarStore([Atom("r", (a, b))]))
        overlay.discard(Atom("r", (a, b)))
        assert "tombstones" in overlay.memory_report().components
