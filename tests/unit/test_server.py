"""Unit tests for the concurrent reasoning server (repro.server).

Covers the MVCC snapshot layer (versions, leases, GC, flattening,
frozen-store enforcement), the embeddable service (snapshot-isolated
queries, cache migration across updates), the NDJSON protocol, and the
daemon + client over a real socket.
"""

import json
import threading
import time

import pytest

from repro.core.atoms import Atom
from repro.core.terms import Constant
from repro.lang.parser import parse_atom
from repro.server import (
    ReasoningClient,
    ReasoningServer,
    ReasoningService,
    ServerError,
    SnapshotManager,
)
from repro.server.protocol import (
    QUERY_OPTIONS,
    ProtocolError,
    decode_request,
    encode_response,
    handle_request,
)
from repro.api.planner import ENGINE_OPTIONS, ENGINES, WIRE_OPTIONS
from repro.storage import (
    BACKENDS,
    ColumnarStore,
    DeltaOverlay,
    FrozenStoreError,
)

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

FULL_QUERY = "q(X, Y) :- path(X, Y)."
BOUND_QUERY = "q(X) :- path(a, X)."


def atom(text: str) -> Atom:
    return parse_atom(text)


def edge(x: str, y: str) -> Atom:
    return Atom("edge", (Constant(x), Constant(y)))


class TestFrozenStores:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_freeze_refuses_mutation(self, backend):
        from repro.storage import make_store

        store = make_store(backend, [edge("a", "b")])
        assert not store.frozen
        store.freeze()
        assert store.frozen
        with pytest.raises(FrozenStoreError):
            store.add(edge("b", "c"))
        with pytest.raises(FrozenStoreError):
            store.discard(edge("a", "b"))
        # Reads still fine, and copies are mutable again.
        assert edge("a", "b") in store
        clone = store.copy()
        assert not clone.frozen
        clone.add(edge("b", "c"))
        assert len(clone) == 2 and len(store) == 1


class TestSnapshotManager:
    def test_install_and_isolation(self):
        manager = SnapshotManager([edge("a", "b")], store="columnar")
        lease0 = manager.current()
        version, maintained, fallbacks = manager.install(
            (edge("b", "c"),), ()
        )
        assert version.number == 1 and not maintained and not fallbacks
        assert manager.head_version == 1
        # The old lease still reads the old contents.
        assert edge("b", "c") not in lease0.store
        with manager.current() as lease1:
            assert edge("b", "c") in lease1.store
        lease0.release()

    def test_retraction_visible_in_new_version_only(self):
        manager = SnapshotManager([edge("a", "b"), edge("b", "c")])
        old = manager.current()
        manager.install((), (edge("a", "b"),))
        assert edge("a", "b") in old.store
        new = manager.current()
        assert edge("a", "b") not in new.store
        assert len(new.store) == 1
        old.release(), new.release()

    def test_refcount_and_gc(self):
        manager = SnapshotManager([edge("a", "b")])
        lease = manager.current()
        manager.install((edge("b", "c"),), ())
        # v0 still referenced -> alive.
        assert manager.live_versions == (0, 1)
        lease.release()
        assert manager.live_versions == (1,)
        assert manager.collected == 1
        # Idempotent release does not double-decrement.
        lease.release()
        assert manager.refcounts() == {1: 0}

    def test_unreferenced_version_collected_on_install(self):
        manager = SnapshotManager()
        for index in range(3):
            manager.install((edge("a", str(index)),), ())
        assert manager.live_versions == (3,)
        assert manager.collected == 3

    def test_flattening_bounds_depth(self):
        manager = SnapshotManager(
            [edge("a", "b")], store="columnar", flatten_depth=3
        )
        atoms = []
        for index in range(10):
            extra = edge("n", str(index))
            atoms.append(extra)
            manager.install((extra,), ())
        stats = manager.stats()
        assert stats["head_depth"] < 3
        assert stats["flattened"] >= 3
        head = manager.current()
        assert len(head.store) == 11
        for extra in atoms:
            assert extra in head.store
        head.release()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chain_of_d_installs_has_d_plus_one_leaf_stores(self, backend):
        """An overlay's delta is a flat store of the bottom backend —
        were it another overlay, depth d would mean 2^d leaves."""

        def leaves(store):
            if isinstance(store, DeltaOverlay):
                return leaves(store.base) + leaves(store.delta)
            return [store]

        depth = 7
        manager = SnapshotManager(
            [edge("a", "b")], store=backend, flatten_depth=depth + 1
        )
        bottom = type(manager.current().store)
        for index in range(depth):
            head = manager.install((edge("n", str(index)),), ())[0].store
            assert isinstance(head, DeltaOverlay)
            assert type(head.fresh()) is bottom
            assert len(leaves(head)) == index + 2
            assert all(type(leaf) is bottom for leaf in leaves(head))
        assert manager.stats()["flattened"] == 0 and len(head) == depth + 1

    def test_every_version_frozen(self):
        manager = SnapshotManager([edge("a", "b")])
        manager.install((edge("b", "c"),), ())
        lease = manager.current()
        with pytest.raises(FrozenStoreError):
            lease.store.add(edge("x", "y"))
        lease.release()

    def test_flatten_depth_validated(self):
        with pytest.raises(ValueError):
            SnapshotManager(flatten_depth=0)


class TestReasoningService:
    def test_query_answers_and_version(self):
        service = ReasoningService(PROGRAM)
        result = service.query(BOUND_QUERY)
        assert result.answers == (("b",), ("c",), ("d",))
        assert result.version == 0
        assert result.stats["snapshot_version"] == 0
        assert result.wall_ms >= 0.0

    def test_second_query_hits_version_cache(self):
        service = ReasoningService(PROGRAM)
        first = service.query(FULL_QUERY)
        second = service.query(FULL_QUERY)
        assert not first.stats["from_cache"]
        assert second.stats["from_cache"]
        assert first.answers == second.answers

    def test_update_bumps_version_and_answers(self):
        service = ReasoningService(PROGRAM)
        before = service.query(BOUND_QUERY)
        update = service.apply("+edge(d, e).")
        assert update.effective and update.version == 1
        after = service.query(BOUND_QUERY)
        assert before.version == 0 and after.version == 1
        assert ("e",) in after.answers and ("e",) not in before.answers

    def test_noop_update_installs_nothing(self):
        service = ReasoningService(PROGRAM)
        update = service.apply("+edge(a, b).")  # already present
        assert not update.effective
        assert service.current_version == 0

    def test_in_flight_stream_keeps_its_snapshot(self):
        service = ReasoningService(PROGRAM)
        stream = service.stream(FULL_QUERY)
        stream.first(1)  # engine started on v0
        service.apply("+edge(d, e).")
        rows = {tuple(str(t) for t in row) for row in stream}
        # path over the *original* edges only: no pair involving e.
        assert ("d", "e") not in rows
        assert stream.stats.snapshot_version == 0
        # A fresh query sees the new version.
        assert ("d", "e") in {
            tuple(row) for row in service.query(FULL_QUERY).answers
        }

    def test_stream_release_frees_old_version(self):
        service = ReasoningService(PROGRAM)
        stream = service.stream(FULL_QUERY)
        stream.first(1)
        service.apply("+edge(d, e).")
        assert 0 in service.snapshots.live_versions
        stream.to_set()  # drain -> lease released -> v0 collectable
        assert 0 not in service.snapshots.live_versions

    def test_closed_stream_releases_lease(self):
        service = ReasoningService(PROGRAM)
        stream = service.stream(FULL_QUERY)
        stream.first(1)
        stream.close()
        assert service.snapshots.refcounts()[0] == 0
        assert service.active_streams == 0

    def test_maintainable_fixpoint_migrates_across_update(self):
        service = ReasoningService(PROGRAM)
        warm = service.query(FULL_QUERY)  # populates v0's cache
        update = service.apply("+edge(d, e).")
        assert update.maintained == update.migrated == 1
        assert not update.fallbacks
        after = service.query(FULL_QUERY)
        # Served from the migrated materialization: no engine rerun.
        assert after.stats["from_cache"]
        assert ("a", "e") in {tuple(r) for r in after.answers}
        assert warm.answers != after.answers

    def test_magic_fixpoint_falls_back_on_update(self):
        service = ReasoningService(PROGRAM)
        service.query(BOUND_QUERY, rewrite="magic")
        update = service.apply("+edge(d, e).")
        assert update.migrated == 0
        assert any("demand-specific" in reason for _, reason in update.fallbacks)
        # Correct after recompute.
        after = service.query(BOUND_QUERY, rewrite="magic")
        assert ("e",) in after.answers

    def test_warm_bound_read_is_a_hit_across_an_update(self):
        """Demand and deltas compose: on a version that holds the full
        fixpoint a default (``auto``) bound read is served from it, so
        an update has no demand fixpoint to drop and the next bound
        read is a hit on the maintained copy."""
        service = ReasoningService(PROGRAM)
        service.query(FULL_QUERY)
        old_reader = service.stream(BOUND_QUERY)  # leased on v0, not run yet
        before = service.query(BOUND_QUERY)
        assert before.stats["from_cache"] and before.stats["rewrite"] == "none"
        update = service.apply("+edge(d, e).")
        assert update.migrated == 1 and update.fallbacks == ()
        after = service.query(BOUND_QUERY)
        assert after.version == before.version + 1
        assert after.stats["from_cache"] and after.stats["rewrite"] == "none"
        assert after.answers == (("b",), ("c",), ("d",), ("e",))
        stats = service.stats()
        assert stats["migration_fallbacks_total"] == 0
        assert stats["head_caches"]["fixpoints"] == 1
        # The reader admitted before the update still reads v0's fixpoint.
        rows = sorted(tuple(map(str, row)) for row in old_reader)
        assert rows == [("b",), ("c",), ("d",)] == list(before.answers)
        assert old_reader.stats.from_cache
        assert old_reader.stats.snapshot_version == before.version

    def test_a_version_is_published_with_its_carried_cache(
        self, monkeypatch
    ):
        """A reader admitted while an update maintains the fixpoint
        reads the old head, warm; the new head appears with its cache
        already carried.  (Regression: the version became head first,
        so such a reader re-saturated into a cache that was then
        replaced.)  And the service keeps no second copy of the EDB."""
        from repro.incremental import FixpointMaintainer

        service = ReasoningService(PROGRAM)
        service.query(FULL_QUERY, rewrite="none")  # warm-up
        during = []

        def read():
            during.append(service.query(FULL_QUERY, rewrite="none"))

        def admit_a_reader():
            reader = threading.Thread(target=read)
            reader.start()
            reader.join(timeout=10)

        real = FixpointMaintainer.apply

        def observed(self, *args, **kwargs):
            admit_a_reader()  # the update is under way, nothing carried
            stats = real(self, *args, **kwargs)
            admit_a_reader()  # carried, not yet published
            return stats

        monkeypatch.setattr(FixpointMaintainer, "apply", observed)
        for number, batch in enumerate(("+edge(d, e).", "-edge(a, b)."), 1):
            assert service.apply(batch).migrated == 1
            after = service.query(FULL_QUERY, rewrite="none")
            assert after.version == number and after.stats["from_cache"]
            assert [r.version for r in during] == [number - 1] * 2
            assert all(r.stats["from_cache"] for r in during)
            during.clear()
        assert ("a", "b") not in after.answers and ("d", "e") in after.answers
        assert len(service.session.edb) == 0
        assert service.stats()["memory"]["edb_atoms"] == 3

    def test_query_error_counted_and_lease_released(self):
        service = ReasoningService(PROGRAM)
        with pytest.raises(Exception):
            service.query("q(X) :- path(a X")  # parse error
        assert service.errors_total == 1
        assert service.snapshots.refcounts() == {0: 0}

    def test_stats_shape(self):
        service = ReasoningService(PROGRAM, store="columnar")
        service.query(FULL_QUERY)
        service.apply("+edge(d, e).")
        stats = service.stats()
        assert stats["queries_total"] == 1
        assert stats["updates_total"] == 1
        assert stats["snapshots"]["head_version"] == 1
        assert stats["memory"]["edb_atoms"] == 4
        assert stats["memory"]["edb_resident_bytes"] > 0
        json.dumps(stats)  # must be wire-serializable

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_serve(self, backend):
        service = ReasoningService(PROGRAM, store=backend)
        assert service.query(BOUND_QUERY).answers == (
            ("b",), ("c",), ("d",),
        )
        service.apply("+edge(d, e).")
        assert ("e",) in service.query(BOUND_QUERY).answers


class TestProtocol:
    def test_decode_validates(self):
        with pytest.raises(ProtocolError):
            decode_request("not json")
        with pytest.raises(ProtocolError):
            decode_request('["a", "list"]')
        with pytest.raises(ProtocolError):
            decode_request('{"op": "evaporate"}')
        assert decode_request('{"op": "ping"}') == {"op": "ping"}

    def test_roundtrip_query(self):
        service = ReasoningService(PROGRAM)
        request = decode_request(
            json.dumps({"op": "query", "query": BOUND_QUERY, "id": 7})
        )
        response = handle_request(service, request)
        assert response["ok"] and response["id"] == 7
        assert response["answers"] == [["b"], ["c"], ["d"]]
        line = encode_response(response)
        assert "\n" not in line
        assert json.loads(line) == response

    def test_engine_error_becomes_error_response(self):
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service, {"op": "query", "query": "q(X) :- broken(("}
        )
        assert response["ok"] is False
        assert "expected" in response["error"]

    def test_forced_method_outside_its_class_has_no_partial_answers(self):
        # Warded but not PWL; the probe alone settles all nine rows, so
        # no per-tuple decision ever runs to notice.
        service = ReasoningService(
            "e(a,b). e(b,c). e(c,a). "
            "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z)."
        )
        response = handle_request(
            service,
            {"op": "query", "query": "q(X,Y) :- t(X,Y).", "method": "pwl"},
        )
        assert response["ok"] is False
        assert response["error"] == "program is not piece-wise linear"
        assert "answers" not in response

    def test_update_accepts_list_and_text(self):
        service = ReasoningService(PROGRAM)
        as_list = handle_request(
            service, {"op": "update", "changes": ["+edge(d, e)."]}
        )
        assert as_list["ok"] and as_list["version"] == 1
        as_text = handle_request(
            service, {"op": "update", "changes": "-edge(d, e)."}
        )
        assert as_text["ok"] and as_text["version"] == 2

    def test_shutdown_returns_none(self):
        service = ReasoningService(PROGRAM)
        assert handle_request(service, {"op": "shutdown"}) is None

    @pytest.mark.parametrize("first", [-1, 0, 2.5, "2", True, [2]])
    def test_first_must_be_a_positive_int(self, first):
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service, {"op": "query", "query": FULL_QUERY, "first": first}
        )
        assert response["ok"] is False
        assert response["kind"] == "ProtocolError"
        assert "'first' must be a positive integer" in response["error"]
        assert service.stats()["queries_total"] == 0  # never admitted

    @pytest.mark.parametrize(
        "first, rows, truncated",
        [(1, 1, True), (5, 5, True), (6, 6, False), (7, 6, False)],
    )
    def test_truncated_only_when_something_was_cut(
        self, first, rows, truncated
    ):
        # FULL_QUERY has exactly six answers: asking for all six cuts
        # nothing, which one pull past `first` is enough to know.
        service = ReasoningService(PROGRAM)
        for _ in range(2):  # engine run, then fixpoint-cache hit
            response = handle_request(
                service,
                {"op": "query", "query": FULL_QUERY, "first": first},
            )
            assert response["ok"]
            assert len(response["answers"]) == rows
            assert response["truncated"] is truncated

    def test_null_first_means_no_limit(self):
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service, {"op": "query", "query": FULL_QUERY, "first": None}
        )
        assert response["ok"] and len(response["answers"]) == 6
        assert response["truncated"] is False

    @pytest.mark.parametrize(
        "option, value, wording",
        [("probe_depth", "2", "a non-negative integer"),
         ("max_atoms", "x", "a non-negative integer"),
         ("max_steps", True, "a non-negative integer"),
         ("max_events", 2.0, "a non-negative integer"),
         ("max_steps", -1, "a non-negative integer"),
         ("probe_atoms", [3], "a non-negative integer"),
         ("strict", "no", "a boolean"),
         ("strict", 0, "a boolean"),
         ("rewrite", ["none"], "a string"),
         ("method", 3, "a string"),
         ("variant", False, "a string")],
    )
    def test_option_values_are_checked_before_admission(
        self, option, value, wording
    ):
        # {"method": "pwl", "probe_depth": "2"} used to reach the engine
        # and come back as a TypeError from a str < int comparison.
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service,
            {"op": "query", "query": FULL_QUERY, "method": "pwl", "id": 4,
             option: value},
        )
        assert response["ok"] is False and response["id"] == 4
        assert response["kind"] == "ProtocolError"
        assert response["error"] == (
            f"{option!r} must be {wording}, got {value!r}"
        )
        assert service.stats()["queries_total"] == 0  # never admitted

    @pytest.mark.parametrize(
        "options",
        [{"method": "pwl", "probe_depth": 2, "probe_atoms": 0},
         {"method": "chase", "variant": "restricted", "strict": False,
          "max_atoms": 100, "max_steps": 100},
         {"method": "network", "max_events": 1000, "strict": True},
         {"method": "datalog", "rewrite": "none", "max_atoms": 0},
         {"method": None, "rewrite": None, "strict": None, "max_atoms": None}],
        ids=lambda options: str(options["method"]),
    )
    def test_valid_option_values_are_still_accepted(self, options):
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service, {"op": "query", "query": FULL_QUERY, **options}
        )
        assert response["ok"], response
        assert len(response["answers"]) == 6

    @pytest.mark.parametrize("method", ENGINES)
    def test_every_engine_accepts_every_wire_option(self, method):
        """An option the resolved engine does not take is dropped by the
        planner and named on a ``why:`` line, never a TypeError from
        inside an engine (``max_events`` used to crash chase/pwl/ward,
        ``variant`` network/pwl/ward, ...)."""
        values = {"variant": "restricted", "strict": True}
        service = ReasoningService(PROGRAM)
        plain = handle_request(
            service, {"op": "query", "query": FULL_QUERY, "method": method}
        )
        assert plain["ok"] and len(plain["answers"]) == 6
        for option in sorted(WIRE_OPTIONS):
            value = values.get(option, 1000)
            response = handle_request(
                service,
                {"op": "query", "query": FULL_QUERY, "method": method,
                 "rewrite": "none", option: value},
            )
            assert response["ok"], (option, response)
            assert response["answers"] == plain["answers"]
            plan = service.session.plan(
                FULL_QUERY, method=method, rewrite="none", **{option: value}
            )
            taken = option in ENGINE_OPTIONS[method]
            assert (option in plan.engine_kwargs) is taken
            note = (
                f"ignored (the {method} engine takes no such option): "
                f"{option}"
            )
            assert (note in plan.explain()) is not taken

    def test_non_wire_kwargs_still_reach_the_engine_and_raise(self):
        service = ReasoningService(PROGRAM)
        for method in ENGINES:
            with pytest.raises(TypeError, match="no_such_option"):
                service.query(FULL_QUERY, method=method, no_such_option=1)

    def test_every_query_option_has_a_value_check(self):
        from repro.server.protocol import _OPTION_VALUES

        assert set(_OPTION_VALUES) == set(QUERY_OPTIONS)

    def test_stats_count_prepared_plans(self):
        service = ReasoningService(PROGRAM)
        request = {"op": "query", "query": BOUND_QUERY, "rewrite": "none"}
        for _ in range(7):
            assert handle_request(service, request)["ok"]
        stats = handle_request(service, {"op": "stats"})["stats"]
        assert stats["prepared"] == {"entries": 1, "hits": 6, "misses": 1}
        handle_request(service, {**request, "rewrite": "magic"})
        handle_request(service, {"op": "query", "query": "q(X) :- path(a X"})
        assert service.stats()["prepared"] == {
            "entries": 2, "hits": 6, "misses": 2,
        }

    def test_unknown_query_option_lists_the_valid_ones(self):
        service = ReasoningService(PROGRAM, store="columnar")
        response = handle_request(
            service,
            {"op": "query", "query": FULL_QUERY, "id": 3,
             "exec_mode": "interpret", "frist": 2},
        )
        assert response["ok"] is False and response["id"] == 3
        assert response["kind"] == "ProtocolError"
        assert "unknown query option(s) exec_mode, frist" in response["error"]
        for option in QUERY_OPTIONS:
            assert option in response["error"]
        assert "exec_mode" not in QUERY_OPTIONS

    #: One W203 (cartesian body) finding and no W204.
    CARTESIAN = "e(a,b). f(c). t(X,Y) :- e(X,Y). u(X,Z) :- e(X,Y), f(Z)."

    @pytest.mark.parametrize("key", ["select", "ignore"])
    @pytest.mark.parametrize("value", ["W204", 5, ["W", 3], {"W": 1}])
    def test_lint_prefixes_must_be_a_list_of_strings(self, key, value):
        # A bare string used to be read character-wise: "W204" selected
        # the prefixes W, 2, 0, 4 and so returned W203.
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service,
            {"op": "lint", "program": self.CARTESIAN, "id": 9, key: value},
        )
        assert response["ok"] is False and response["id"] == 9
        assert response["kind"] == "ProtocolError"
        assert f"'{key}' must be a list" in response["error"]

    @pytest.mark.parametrize(
        "select, codes",
        [(["W204"], []), (["W203"], ["W203"]), (["W2"], ["W203"]),
         (None, ["I206", "I206", "W203", "I106"])],
    )
    def test_lint_select_list_and_null(self, select, codes):
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service,
            {"op": "lint", "program": self.CARTESIAN, "select": select},
        )
        assert response["ok"]
        assert [d["code"] for d in response["diagnostics"]] == codes
        ignored = handle_request(
            service,
            {"op": "lint", "program": self.CARTESIAN,
             "select": select, "ignore": ["W203"]},
        )
        assert "W203" not in [d["code"] for d in ignored["diagnostics"]]


@pytest.fixture()
def server():
    service = ReasoningService(PROGRAM, store="columnar")
    daemon = ReasoningServer(service, port=0)
    daemon.serve_in_thread()
    yield daemon
    daemon.close()


class TestDaemonAndClient:
    def test_query_update_stats_ping(self, server):
        host, port = server.address
        with ReasoningClient(host, port) as client:
            assert client.ping() == 0
            result = client.query(BOUND_QUERY)
            assert result.answers == (("b",), ("c",), ("d",))
            assert result.version == 0
            payload = client.update("+edge(d, e).")
            assert payload["version"] == 1
            assert client.query(BOUND_QUERY).answers == (
                ("b",), ("c",), ("d",), ("e",),
            )
            stats = client.stats()
            assert stats["queries_total"] == 2
            assert stats["updates_total"] == 1

    def test_first_n_truncates(self, server):
        host, port = server.address
        with ReasoningClient(host, port) as client:
            result = client.query(FULL_QUERY, first=2)
            assert len(result.answers) == 2
            assert result.truncated

    def test_connection_survives_errors(self, server):
        host, port = server.address
        with ReasoningClient(host, port) as client:
            with pytest.raises(ServerError) as info:
                client.query("q(X) :- broken((")
            assert info.value.kind in ("ParserError", "ValueError", "LexerError")
            # Undecodable frame -> error response, connection stays up.
            client._sock.sendall(b"this is not json\n")
            with client._lock:
                line = client._reader.readline()
            assert json.loads(line)["ok"] is False
            assert client.ping() == 0

    def test_oversized_request_line_is_refused_and_the_socket_closed(
        self, server
    ):
        """A line with no newline inside ``MAX_REQUEST_BYTES`` is never
        buffered whole: one error reply naming the limit, then EOF —
        and the daemon keeps answering everybody else."""
        import socket

        from repro.server.protocol import MAX_REQUEST_BYTES

        with socket.create_connection(server.address, timeout=30) as raw:
            raw.sendall(b"x" * (MAX_REQUEST_BYTES + 1))
            with raw.makefile("rb") as replies:
                reply = json.loads(replies.readline())
                assert replies.readline() == b""  # closed by the daemon
        assert reply["ok"] is False and reply["kind"] == "ProtocolError"
        assert str(MAX_REQUEST_BYTES) in reply["error"]
        # A line of exactly the bound, newline included, is a request.
        head, tail = b'{"op":"ping","id":"', b'"}\n'
        padding = b"x" * (MAX_REQUEST_BYTES - len(head) - len(tail))
        with socket.create_connection(server.address, timeout=30) as raw:
            raw.sendall(head + padding + tail)
            with raw.makefile("rb") as replies:
                reply = json.loads(replies.readline())
        assert reply["ok"] is True and len(reply["id"]) == len(padding)
        with ReasoningClient(*server.address) as client:
            assert client.ping() == 0
        assert server.drain(timeout=5)

    def test_concurrent_clients_one_socket_each(self, server):
        host, port = server.address
        errors = []

        def worker():
            try:
                with ReasoningClient(host, port) as client:
                    for _ in range(5):
                        rows = client.query(FULL_QUERY).answers
                        assert len(rows) >= 6
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_shutdown_frame_stops_server(self, server):
        host, port = server.address
        with ReasoningClient(host, port) as client:
            assert client.shutdown() is True
        deadline = time.monotonic() + 5
        while not server.stopping and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.stopping


class TestClientResilience:
    def test_reconnects_once_on_dead_socket(self, server):
        import socket as socket_module

        host, port = server.address
        with ReasoningClient(host, port) as client:
            version = client.ping()
            # Kill the connection out from under the client; the next
            # call must transparently reconnect and succeed.
            client._sock.shutdown(socket_module.SHUT_RDWR)
            assert client.ping() == version
            assert client.reconnects == 1
            # The replacement connection carries real traffic.
            assert client.query(BOUND_QUERY).answers == (
                ("b",), ("c",), ("d",),
            )
            assert client.reconnects == 1

    def test_second_failure_propagates(self, server):
        import socket as socket_module

        host, port = server.address
        client = ReasoningClient(host, port)
        client.ping()
        # Dead connection AND no listener to reconnect to: the single
        # reconnect attempt itself fails, and the error surfaces
        # instead of looping.
        server.close()
        client._sock.shutdown(socket_module.SHUT_RDWR)
        with pytest.raises((ConnectionError, OSError)):
            client.ping()

    def test_per_request_timeout_raises_without_reconnect(self):
        import socket as socket_module

        # A listener that accepts but never replies: the bounded call
        # must raise TimeoutError — and must NOT reconnect-and-resend,
        # because the request may still be executing server-side.
        silent = socket_module.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        host, port = silent.getsockname()
        try:
            client = ReasoningClient(host, port, timeout=10.0)
            with pytest.raises(TimeoutError):
                client.ping(timeout=0.2)
            assert client.reconnects == 0
            # The connection default is restored after a bounded call.
            assert client._sock.gettimeout() == 10.0
            client.close()
        finally:
            silent.close()

    def test_timeout_threads_through_operations(self, server):
        host, port = server.address
        with ReasoningClient(host, port) as client:
            assert client.ping(timeout=30) == 0
            assert client.query(BOUND_QUERY, timeout=30).answers
            assert client.update("+edge(x, y).", timeout=30)["version"] == 1
            assert client.stats(timeout=30)["updates_total"] == 1


class TestColumnarProbeConcurrency:
    """Regression: the lazy index build and LRU probe cache used to be
    unsynchronized — two threads probing the same cold (predicate,
    position) raced on index construction and cache eviction."""

    def test_concurrent_cold_probes(self):
        atoms = [edge(str(i), str(i + 1)) for i in range(300)]
        store = ColumnarStore(atoms, probe_cache_size=16)
        results, errors = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait(timeout=10)
                for i in range(50):
                    rows = list(
                        store.matching_bound(
                            "edge",
                            {1: Constant(str(i)), 2: Constant(str(i + 1))},
                        )
                    )
                    results.append(len(rows))
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert results and all(count == 1 for count in results)
        # Counter invariant: every probe recorded exactly one hit or miss.
        assert store.cache_hits + store.cache_misses == len(results)


class TestServiceMemoryStats:
    """Per-version resident/spilled byte figures in ``stats()`` (PR 7)."""

    def test_per_version_figures(self):
        service = ReasoningService(PROGRAM, store="columnar")
        service.query(FULL_QUERY)
        service.apply("+edge(d, e).")
        service.query(FULL_QUERY)
        stats = service.stats()
        memory = stats["memory"]
        versions = memory["versions"]
        # Both live versions are reported, head included.
        assert set(versions) >= {"1"}
        head = versions[str(stats["snapshots"]["head_version"])]
        assert head["atoms"] == 4
        assert head["resident_bytes"] > 0
        assert head["spilled_bytes"] == 0
        assert memory["resident_bytes_total"] >= head["resident_bytes"]
        assert memory["spilled_bytes_total"] == 0
        # The head is a DeltaOverlay after the update (delta over the
        # frozen columnar base).
        assert memory["backend"] == "delta"
        json.dumps(stats)

    def test_shared_structure_charged_once(self):
        """Old versions share the head's interning table and (via the
        overlay chain) most of its rows: the total must come out far
        below `live versions × head cost`."""
        service = ReasoningService(PROGRAM, store="columnar")
        lease = service.snapshots.current()  # pin version 0
        try:
            for i in range(5):
                service.apply(f"+edge(x{i}, y{i}).")
            stats = service.stats()
            memory = stats["memory"]
            versions = memory["versions"]
            assert len(versions) >= 2  # head + pinned v0 at least
            head_bytes = versions[str(stats["snapshots"]["head_version"])][
                "resident_bytes"
            ]
            assert memory["resident_bytes_total"] < (
                len(versions) * head_bytes
            )
        finally:
            lease.release()

    def test_sharded_backend_reports_spill(self):
        from repro.storage import sharded_store_factory

        atoms_text = " ".join(
            f"edge(v{i}, v{i + 1})." for i in range(200)
        )
        service = ReasoningService(
            atoms_text + " path(X, Y) :- edge(X, Y).",
            store=sharded_store_factory(4096, None),
        )
        stats = service.stats()
        memory = stats["memory"]
        assert memory["backend"] == "sharded"
        assert memory["edb_spilled_bytes"] > 0
        assert memory["spilled_bytes_total"] >= memory["edb_spilled_bytes"]
        json.dumps(stats)

    def test_sharded_service_answers(self):
        from repro.storage import sharded_store_factory

        service = ReasoningService(
            PROGRAM, store=sharded_store_factory(None, None)
        )
        assert service.query(BOUND_QUERY).answers == (
            ("b",), ("c",), ("d",),
        )
        service.apply("+edge(d, e).")
        assert ("e",) in service.query(BOUND_QUERY).answers


class TestWarmStart:
    """State-directory persistence: a restarted service answers its
    first query from restored caches, without resaturating."""

    def test_cold_then_warm(self, tmp_path):
        first = ReasoningService(PROGRAM, state_dir=tmp_path)
        assert first.warm_started is False
        cold = first.query(FULL_QUERY)
        assert cold.stats["from_cache"] is False
        first.checkpoint()

        second = ReasoningService(PROGRAM, state_dir=tmp_path)
        assert second.warm_started is True
        warm = second.query(FULL_QUERY)
        assert warm.stats["from_cache"] is True
        assert warm.answers == cold.answers
        stats = second.stats()
        assert stats["warm_started"] is True
        assert stats["state_dir"] == str(tmp_path)

    def test_apply_checkpoints_automatically(self, tmp_path):
        first = ReasoningService(PROGRAM, state_dir=tmp_path)
        first.query(FULL_QUERY)
        first.apply("+edge(d, e).")  # checkpoint rides on the update

        second = ReasoningService(PROGRAM, state_dir=tmp_path)
        assert second.warm_started is True
        warm = second.query(FULL_QUERY)
        assert warm.stats["from_cache"] is True
        assert ("d", "e") in warm.answers

    def test_program_change_invalidates_state(self, tmp_path):
        first = ReasoningService(PROGRAM, state_dir=tmp_path)
        first.query(FULL_QUERY)
        first.checkpoint()

        changed = PROGRAM + "\npath(X, X) :- edge(X, Y)."
        second = ReasoningService(changed, state_dir=tmp_path)
        assert second.warm_started is False
        assert second.query(FULL_QUERY).stats["from_cache"] is False

    def test_store_mismatch_skips_restored_fixpoints(self, tmp_path):
        first = ReasoningService(PROGRAM, store="columnar",
                                 state_dir=tmp_path)
        first.query(FULL_QUERY)
        first.checkpoint()

        second = ReasoningService(PROGRAM, store="instance",
                                  state_dir=tmp_path)
        # EDB still restores (warm), but the columnar fixpoint does not
        # masquerade as an instance-backed one.
        assert second.warm_started is True
        result = second.query(FULL_QUERY)
        assert result.stats["from_cache"] is False
        assert result.answers == first.query(FULL_QUERY).answers

    def test_no_state_dir_never_warm(self):
        service = ReasoningService(PROGRAM)
        assert service.warm_started is False
        assert service.stats()["state_dir"] is None
        service.checkpoint()  # no-op without a directory


DEFECTIVE_PROGRAM = """
e(a, b).
p(X) :- e(X, Y).
q(X, Y) :- p(X).
pair(Y, Z) :- q(X, Y), q(W, Z).
bad(Z) :- e(X, Y), not e(Y, Z).
"""


class TestLintOp:
    def test_service_lints_request_text(self):
        service = ReasoningService(PROGRAM)
        payload = service.lint(DEFECTIVE_PROGRAM)
        assert payload["program"] == "<request>"
        assert payload["errors"] >= 1
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"E101", "W201"} <= codes

    def test_service_serves_loaded_program_report(self):
        service = ReasoningService(PROGRAM)
        payload = service.lint()
        assert payload["summary"] == "clean"
        assert payload["diagnostics"] == []
        # Served from the compiled artifact's cache: no re-runs.
        from repro.lint import pass_invocations

        before = pass_invocations()
        for _ in range(5):
            service.lint()
        assert pass_invocations() == before

    def test_service_syntax_error_becomes_e001(self):
        payload = ReasoningService(PROGRAM).lint("t(X) :- e(X\n")
        (finding,) = payload["diagnostics"]
        assert finding["code"] == "E001"
        assert payload["errors"] == 1

    def test_service_select_ignore(self):
        service = ReasoningService(PROGRAM)
        payload = service.lint(DEFECTIVE_PROGRAM, select=["E"])
        assert all(
            d["code"].startswith("E") for d in payload["diagnostics"]
        )
        payload = service.lint(DEFECTIVE_PROGRAM, ignore=["E", "W", "I"])
        assert payload["diagnostics"] == []

    def test_protocol_lint_op(self):
        service = ReasoningService(PROGRAM)
        response = handle_request(
            service, {"op": "lint", "program": DEFECTIVE_PROGRAM}
        )
        assert response["ok"]
        assert response["errors"] >= 1

    def test_protocol_rejects_non_string_program(self):
        service = ReasoningService(PROGRAM)
        response = handle_request(service, {"op": "lint", "program": 7})
        assert not response["ok"]

    def test_client_lint_round_trip(self, server):
        host, port = server.address
        with ReasoningClient(host, port) as client:
            payload = client.lint(DEFECTIVE_PROGRAM)
            codes = {d["code"] for d in payload["diagnostics"]}
            assert "E101" in codes
            # No program: the loaded program's cached (clean) report.
            assert client.lint()["summary"] == "clean"
