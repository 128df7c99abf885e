"""Unit tests for the out-of-core sharded storage subsystem."""

import pickle
import random
import threading

import pytest

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Variable
from repro.datalog.seminaive import seminaive, seminaive_rounds
from repro.lang.parser import parse_program
from repro.lang.parser import parse_query
from repro.storage import (
    BACKENDS,
    ColumnarStore,
    DeltaOverlay,
    FrozenStoreError,
    ShardedStore,
    SpillPager,
    StateDirectory,
    make_store,
    sharded_store_factory,
    traced_peak,
)
from repro.storage.sharded.spill import pack_rows, unpack_rows
from repro.storage.sharded.state import (
    FixpointRecord,
    SavedState,
    program_fingerprint,
)

X, Y = Variable("X"), Variable("Y")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def edge_atoms(n):
    return [
        Atom("edge", (Constant(f"n{i}"), Constant(f"n{i + 1}")))
        for i in range(n)
    ]


class TestSpillPager:
    def test_pack_unpack_roundtrip(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        assert unpack_rows(pack_rows(rows), 2, 3) == rows

    def test_zero_arity_roundtrip(self):
        payload = pack_rows([()])
        assert payload == b""
        assert unpack_rows(payload, 0, 1) == [()]
        assert unpack_rows(b"", 0, 0) == []

    def test_write_read_delete(self, tmp_path):
        pager = SpillPager(tmp_path / "spill.sqlite")
        assert pager.read("p", 2, 0) is None  # unmaterialized
        pager.write("p", 2, 0, [(1, 2), (3, 4)])
        assert sorted(pager.read("p", 2, 0)) == [(1, 2), (3, 4)]
        assert pager.pages == 1
        assert pager.bytes == 2 * 2 * 8
        pager.write("p", 2, 0, [(9, 9)])  # replace
        assert pager.read("p", 2, 0) == [(9, 9)]
        assert pager.bytes == 2 * 8
        pager.delete("p", 2, 0)
        assert pager.read("p", 2, 0) is None
        assert pager.pages == 0 and pager.bytes == 0
        pager.close()

    def test_lazy_until_first_write(self, tmp_path):
        path = tmp_path / "sub" / "spill.sqlite"
        pager = SpillPager(path)
        assert not path.exists()
        pager.write("q", 1, 3, [(7,)])
        assert path.exists()
        pager.close()

    def test_zero_arity_page(self, tmp_path):
        pager = SpillPager(tmp_path / "s.sqlite")
        pager.write("flag", 0, 0, [()])
        assert pager.read("flag", 0, 0) == [()]
        pager.close()


class TestShardedStore:
    def test_registered_backend(self):
        assert "sharded" in BACKENDS
        store = make_store("sharded")
        assert isinstance(store, ShardedStore)
        assert store.backend_name == "sharded"

    def test_set_semantics_and_iteration(self):
        store = ShardedStore(num_shards=3)
        atoms = edge_atoms(10)
        assert store.add_all(atoms) == 10
        assert store.add_all(atoms) == 0
        assert len(store) == 10
        assert set(store) == set(atoms)
        assert store.count("edge") == 10
        assert store.predicates() == {"edge"}
        assert store.discard(atoms[0])
        assert not store.discard(atoms[0])
        assert len(store) == 9

    def test_budget_forces_spill_and_answers_survive(self):
        atoms = edge_atoms(300)
        store = ShardedStore(memory_budget=4096, num_shards=8)
        store.add_all(atoms)
        stats = store.stats
        assert stats["spilled_shards"] > 0
        assert stats["evictions"] > 0
        assert stats["spill_bytes"] > 0
        # Content is unaffected by residency.
        assert set(store) == set(atoms)
        assert atoms[271] in store
        got = set(store.matching_bound("edge", {1: Constant("n42")}))
        assert got == {atoms[42]}

    def test_resident_estimate_tracks_budget(self):
        store = ShardedStore(memory_budget=8192, num_shards=8)
        store.add_all(edge_atoms(500))
        # The enforcement invariant: at most one shard (the touched
        # one) may push the estimate over budget.
        resident = store.stats["resident_estimate"]
        per_shard = max(
            (s.estimate
             for by_arity in store._relations.values()
             for rel in by_arity.values()
             for s in rel.shards if s.resident),
            default=0,
        )
        assert resident <= 8192 + per_shard

    def test_unbounded_never_spills(self):
        store = ShardedStore()
        store.add_all(edge_atoms(200))
        assert store.stats["spilled_shards"] == 0
        assert store.stats["spill_pages"] == 0

    def test_probe_matches_instance(self):
        atoms = edge_atoms(50) + [Atom("edge", (a, a)), Atom("p", (a,))]
        instance = Instance(atoms)
        store = ShardedStore(atoms, memory_budget=2048, num_shards=4)
        for pattern in (
            Atom("edge", (X, Y)),
            Atom("edge", (Constant("n3"), X)),
            Atom("edge", (X, Constant("n3"))),
            Atom("edge", (X, X)),
            Atom("p", (X,)),
            Atom("missing", (X,)),
        ):
            assert sorted(map(str, store.matching(pattern))) == sorted(
                map(str, instance.matching(pattern))
            ), pattern

    def test_probe_snapshot_survives_discard(self):
        atoms = edge_atoms(30)
        store = ShardedStore(atoms, num_shards=2)
        probe = store.matching_bound("edge", {})
        first = next(probe)
        store.discard_all(atoms)
        rest = list(probe)
        assert {first, *rest} == set(atoms)

    def test_freeze_blocks_writes_allows_paging(self):
        store = ShardedStore(edge_atoms(100), memory_budget=2048)
        store.freeze()
        with pytest.raises(FrozenStoreError):
            store.add(Atom("edge", (a, b)))
        with pytest.raises(FrozenStoreError):
            store.discard(edge_atoms(1)[0])
        # Reads still page evicted shards in and out.
        assert set(store) == set(edge_atoms(100))
        assert edge_atoms(60)[59] in store

    def test_fresh_shares_interning_table(self):
        store = ShardedStore(edge_atoms(5), memory_budget=10**6)
        clone = store.fresh()
        assert clone.table is store.table
        assert clone.memory_budget == store.memory_budget
        assert len(clone) == 0

    def test_copy_is_independent(self):
        store = ShardedStore(edge_atoms(10))
        dup = store.copy()
        dup.add(Atom("edge", (a, b)))
        assert len(dup) == 11 and len(store) == 10

    def test_zero_arity_and_key_position(self):
        store = ShardedStore(key_position=2, num_shards=4)
        store.add(Atom("flag", ()))
        store.add_all(edge_atoms(20))
        assert Atom("flag", ()) in store
        got = set(store.matching_bound("edge", {2: Constant("n5")}))
        assert got == {edge_atoms(5)[4]}

    def test_memory_report_shape(self):
        store = ShardedStore(edge_atoms(200), memory_budget=4096)
        report = store.memory_report()
        assert report.backend == "sharded"
        assert report.atom_count == 200
        assert report.spilled_bytes > 0
        assert report.resident_bytes == report.total_bytes
        payload = report.as_dict()
        assert payload["spilled_bytes"] == report.spilled_bytes
        assert "spilled" in payload and "pages" in payload["spilled"]
        assert "spilled" in str(report)

    def test_delta_overlay_composes_over_sharded(self):
        base = ShardedStore(edge_atoms(50), memory_budget=2048)
        base.freeze()
        overlay = DeltaOverlay(base)
        extra = Atom("edge", (a, b))
        overlay.add(extra)
        overlay.discard(edge_atoms(1)[0])
        assert extra in overlay
        assert edge_atoms(1)[0] not in overlay
        assert len(overlay) == 50
        report = overlay.memory_report()
        assert report.spilled_bytes > 0  # base pages surface through

    def test_spill_dir_used(self, tmp_path):
        store = ShardedStore(
            edge_atoms(200), memory_budget=2048, spill_dir=tmp_path
        )
        assert store.stats["spill_pages"] > 0
        files = list(tmp_path.glob("spill-*.sqlite"))
        assert len(files) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedStore(memory_budget=0)
        with pytest.raises(ValueError):
            ShardedStore(num_shards=0)
        with pytest.raises(ValueError):
            ShardedStore(key_position=0)
        with pytest.raises(ValueError):
            ShardedStore().add(Atom("p", (X,)))  # non-ground

    def test_concurrent_adds_and_probes(self):
        store = ShardedStore(memory_budget=8192, num_shards=8)
        errors = []

        def writer(offset):
            try:
                for i in range(100):
                    store.add(
                        Atom("edge", (Constant(f"w{offset}-{i}"),
                                      Constant(f"w{offset}-{i + 1}")))
                    )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        def reader():
            try:
                for _ in range(50):
                    list(store.matching_bound("edge", {}))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in range(3)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 300


class TestBudgetUnderKernels:
    """The byte budget bounds what a *kernel* evaluation keeps in
    memory: the compiled kernels join the store's own shards, paged in
    one at a time, instead of a whole-store copy the budget never saw.
    """

    VERTICES, EDGES, BUDGET, SHARDS = 96, 192, 64 * 1024, 16

    def _closure(self):
        rng = random.Random(2019)
        edges = {
            (rng.randrange(self.VERTICES), rng.randrange(self.VERTICES))
            for _ in range(self.EDGES)
        }
        edges.update((i, i + 1) for i in range(0, self.VERTICES - 1, 2))
        facts = "\n".join(f"edge(v{x}, v{y})." for x, y in sorted(edges))
        return parse_program(
            facts
            + "\npath(X, Y) :- edge(X, Y)."
            + "\npath(X, Z) :- path(X, Y), edge(Y, Z)."
        )

    def test_traced_peak_follows_the_budget(self, tmp_path):
        program, database = self._closure()

        def saturate(budget):
            factory = sharded_store_factory(
                budget, tmp_path, num_shards=self.SHARDS
            )
            return traced_peak(
                lambda: seminaive(database, program, store=factory)
            )

        free, free_peak = saturate(None)
        tight, tight_peak = saturate(self.BUDGET)
        assert free.exec_mode == tight.exec_mode == "kernel"
        assert tight.instance.atoms() == free.instance.atoms()
        working_set = free.instance.stats["resident_estimate"]
        assert working_set >= 8 * self.BUDGET  # really out-of-core
        assert tight.instance.stats["evictions"] > 0
        assert tight_peak <= 0.6 * free_peak, (tight_peak, free_peak)

    def test_mid_fixpoint_report_is_the_store_alone(self, tmp_path):
        program, database = self._closure()
        factory = sharded_store_factory(
            self.BUDGET, tmp_path, num_shards=self.SHARDS
        )
        events = seminaive_rounds(database, program, 3, store=factory)
        for event in events:
            assert event.exec_mode == "kernel"
            report = event.instance.memory_report()
            assert set(report.components) == {"shards", "shard_map", "terms"}
        assert event.index == 3


class TestSharedInterningAccounting:
    """memory_report() with a shared visited-set must charge a shared
    interning table to exactly one holder (the PR-7 audit)."""

    def test_columnar_fresh_shares_table(self):
        base = ColumnarStore(edge_atoms(50))
        delta = base.fresh()
        assert delta._table is base._table

    def test_shared_table_counted_once(self):
        atoms = edge_atoms(200)
        base = ColumnarStore(atoms)
        delta = base.fresh()
        delta.add_all(atoms[:50])  # same terms, re-interned
        seen: set = set()
        base_report = base.memory_report(seen)
        delta_report = delta.memory_report(seen)
        # The table was charged to the base; the delta's share must be
        # (near) zero, not a second full copy.
        assert delta_report.components["terms"] < (
            base_report.components["terms"] / 10
        )

    def test_overlay_total_not_inflated(self):
        atoms = edge_atoms(200)
        base = ColumnarStore(atoms)
        solo = base.memory_report().total_bytes
        overlay = DeltaOverlay(base)
        overlay.add_all(edge_atoms(210)[200:])
        combined = overlay.memory_report().total_bytes
        # Well under double: base facts + table are shared, the delta
        # adds only its few rows.
        assert combined < 1.5 * solo

    def test_sharded_family_counted_once(self):
        atoms = edge_atoms(200)
        base = ShardedStore(atoms)
        delta = base.fresh()
        delta.add_all(atoms[:50])
        seen: set = set()
        base_report = base.memory_report(seen)
        delta_report = delta.memory_report(seen)
        assert delta_report.components["terms"] < (
            base_report.components["terms"] / 10
        )


class TestShardParallelEvaluate:
    """The read path over a sharded fixpoint.  (Named for the
    shard-parallel scan it used to compare against; there is one read
    path now, ``query.evaluate``, and the reference is the resident
    ``Instance``.)"""

    PROGRAM = """
    edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n0).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
    """

    def _saturated_store(self, budget=None):
        from repro.chase.runner import chase

        program, database = parse_program(self.PROGRAM)
        result = chase(
            database, program,
            store=sharded_store_factory(budget, None),
            max_atoms=10000,
        )
        assert result.saturated
        return result.instance

    @pytest.mark.parametrize("budget", [None, 2048])
    def test_agrees_with_sequential(self, budget):
        store = self._saturated_store(budget)
        resident = Instance(store)
        assert (store.stats["spilled_shards"] > 0) == (budget is not None)
        for text in (
            "q(X, Y) :- path(X, Y).",
            "q(X) :- path(n0, X).",
            "q(X) :- edge(X, Y), path(Y, n0).",
            "q() :- path(n0, n0).",
        ):
            query = parse_query(text)
            assert query.evaluate(store) == query.evaluate(resident), text
        if budget is not None:
            assert store.stats["reloads"] > 0


class TestCachedReadStartsNoThread:
    """A hit on a cached sharded fixpoint is ``query.evaluate`` like on
    every other store — no worker pool is built per read."""

    PROGRAM = TestShardParallelEvaluate.PROGRAM
    QUERIES = (
        "q(X, Y) :- path(X, Y).",
        "q(X) :- path(n0, X).",
        "q(X) :- edge(X, Y), path(Y, n0).",
        "q() :- path(n0, n0).",
        "q(X, Z) :- path(X, Y), edge(Y, Z).",
    )

    @pytest.fixture()
    def started(self, monkeypatch):
        names = []
        start = threading.Thread.start

        def counting_start(thread):
            names.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        return names

    def _expected(self):
        from repro.api import Session

        reference = Session(store="instance")
        reference.load(self.PROGRAM)
        return {
            text: reference.query(text, rewrite="none").to_set()
            for text in self.QUERIES
        }

    def test_session_hits(self, started):
        from repro.api import Session

        expected = self._expected()
        session = Session(store="sharded")
        session.load(self.PROGRAM)
        session.query(self.QUERIES[0], rewrite="none").to_set()
        threads = threading.active_count()
        for _ in range(10):
            for text in self.QUERIES:
                stream = session.query(text, rewrite="none")
                assert stream.to_set() == expected[text], text
                assert stream.stats.from_cache
        assert started == []
        assert threading.active_count() == threads

    def test_service_hits_on_a_spilling_store(self, started):
        from repro.server import ReasoningService

        expected = {
            text: sorted(tuple(map(str, row)) for row in rows)
            for text, rows in self._expected().items()
        }
        service = ReasoningService(
            self.PROGRAM, store=sharded_store_factory(2048, None)
        )
        service.query(self.QUERIES[0], rewrite="none")
        threads = threading.active_count()
        for _ in range(10):
            for text in self.QUERIES:
                result = service.query(text, rewrite="none")
                assert sorted(result.answers) == expected[text], text
                assert result.stats["from_cache"]
        assert started == []
        assert threading.active_count() == threads


class TestShardedFactory:
    def test_name_is_stable(self):
        factory = sharded_store_factory(4096, None)
        assert factory.__name__ == "sharded"
        store = factory()
        assert store.memory_budget == 4096

    def test_session_accepts_factory(self):
        from repro.api import Session

        session = Session(store=sharded_store_factory(None, None))
        session.load("e(a, b). t(X, Y) :- e(X, Y).")
        answers = session.answers("q(X, Y) :- t(X, Y).", method="datalog",
                                  rewrite="none")
        assert answers == {(a, b)}

    def test_make_store_seeds(self):
        atoms = edge_atoms(5)
        store = make_store(sharded_store_factory(None, None), atoms)
        assert set(store) == set(atoms)


class TestStateDirectory:
    def _state(self, key="k"):
        return SavedState(
            program_key=key,
            store_name="sharded",
            version=3,
            edb=tuple(edge_atoms(5)),
            fixpoints=(
                FixpointRecord(
                    method="datalog",
                    store_name="sharded",
                    kwargs=(),
                    atoms=tuple(edge_atoms(8)),
                ),
            ),
        )

    def test_save_load_roundtrip(self, tmp_path):
        directory = StateDirectory(tmp_path)
        saved = self._state()
        path = directory.save(saved)
        assert path.exists()
        loaded = directory.load("k")
        assert loaded == saved
        assert loaded.fixpoints[0].atoms == tuple(edge_atoms(8))

    def test_foreign_program_treated_as_absent(self, tmp_path):
        directory = StateDirectory(tmp_path)
        directory.save(self._state(key="other"))
        assert directory.load("k") is None
        assert directory.load() is not None  # keyless load still works

    def test_missing_and_corrupt(self, tmp_path):
        directory = StateDirectory(tmp_path)
        assert directory.load("k") is None
        directory.path.mkdir(exist_ok=True)
        directory.state_file.write_bytes(b"not a pickle")
        assert directory.load("k") is None
        directory.state_file.write_bytes(
            pickle.dumps({"format": 999, "state": None})
        )
        assert directory.load("k") is None

    def test_clear(self, tmp_path):
        directory = StateDirectory(tmp_path)
        directory.save(self._state())
        directory.clear()
        assert directory.load("k") is None
        directory.clear()  # idempotent

    def test_fingerprint_sensitivity(self):
        from repro.api import compile_program

        program, _ = parse_program("t(X, Y) :- e(X, Y).")
        other, _ = parse_program("t(X, Y) :- e(Y, X).")
        first = compile_program(program, source="t(X, Y) :- e(X, Y).")
        second = compile_program(other, source="t(X, Y) :- e(Y, X).")
        assert program_fingerprint(first) != program_fingerprint(second)
        again = compile_program(program, source="t(X, Y) :- e(X, Y).")
        assert program_fingerprint(first) == program_fingerprint(again)

    def test_fingerprint_of_in_memory_program(self):
        # No source text (the embeddable path: benchmarks and the
        # workload harness hand over generated Program objects) — the
        # fallback digests the rules themselves.
        from repro.api import compile_program

        program, _ = parse_program("t(X, Y) :- e(X, Y).")
        other, _ = parse_program("t(X, Y) :- e(Y, X).")
        first = compile_program(program)
        second = compile_program(other)
        assert program_fingerprint(first) != program_fingerprint(second)
        assert program_fingerprint(first) == program_fingerprint(
            compile_program(program)
        )
