"""Trace replay: drive a recorded workload against a reasoning target.

Two pacing disciplines over the same op stream:

* **closed loop** — N workers pull ops as fast as the target answers
  them; throughput is the measurement (how many ops/sec the cell
  sustains);
* **open loop** — ops are released on the trace's ``at`` schedule (or a
  ``rate`` override); *lateness* is the measurement (how far behind the
  schedule the target falls — the latency a user would see at that
  arrival rate, not the latency the target would prefer to be judged by).

Three target adapters:

* :class:`SessionTarget` — an in-process :class:`repro.api.Session`.
  The session mutates its EDB in place (no MVCC), so the adapter
  serializes ops through a lock: a valid single-threaded baseline, and
  honest queueing latency when replayed with many workers;
* :class:`ServiceTarget` — an in-process
  :class:`repro.server.ReasoningService`: genuinely concurrent,
  snapshot-isolated, every result stamped with its admitted version;
* :class:`ClientTarget` — a live ``repro serve`` daemon over real
  sockets, one :class:`~repro.server.ReasoningClient` per worker.

Updates are applied in trace order (a sequencer blocks an update until
its predecessors landed — queries never wait), so the trace's
cumulative EDB states map 1:1 onto the target's version numbers.  With
``verify=True`` every query/point-lookup answer is digested and checked
against a from-scratch evaluation over the EDB state of its *admitted*
version — replay is a correctness harness first, a load harness second.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..benchsuite import Scenario, answer_digest
from ..core.instance import Database
from ..incremental import ChangeSet
from ..lang.parser import parse_query
from .generate import materialize_scenario
from .latency import LatencyHistogram
from .trace import OP_KINDS, Trace

__all__ = [
    "ClientTarget",
    "ReplayResult",
    "ServiceTarget",
    "SessionTarget",
    "replay_trace",
]


# -- target adapters -------------------------------------------------------


class SessionTarget:
    """An in-process :class:`~repro.api.Session` behind a lock.

    The session's EDB is one mutable store — a query racing an update
    would read a half-applied batch — so every op runs to completion
    under the lock.  Latency recorded under contention is queueing
    latency, which is exactly what a single-writer engine would serve.
    """

    name = "session"

    def __init__(
        self,
        session,
        *,
        method: str = "auto",
        rewrite: str = "auto",
    ):
        self._session = session
        self._method = method
        self._rewrite = rewrite
        self._lock = threading.Lock()

    @classmethod
    def for_scenario(cls, scenario: Scenario, *, store="instance", **kwargs):
        from ..api import Session

        session = Session(store=store)
        session.compile(scenario.program)
        session.add_facts(scenario.database)
        return cls(session, **kwargs)

    def worker(self) -> "SessionTarget":
        return self

    def baseline_version(self) -> int:
        return self._session.edb_version

    def query(self, text: str) -> Tuple[Tuple[Tuple[str, ...], ...], int]:
        with self._lock:
            rows = self._session.query(
                text,
                method=self._method,
                rewrite=self._rewrite,
            ).to_sorted()
            version = self._session.edb_version
        return (
            tuple(tuple(str(term) for term in row) for row in rows),
            version,
        )

    def update(self, changes: str) -> int:
        with self._lock:
            return self._session.apply(ChangeSet.parse(changes)).version

    def close(self) -> None:
        pass


class ServiceTarget:
    """An in-process :class:`~repro.server.ReasoningService`.

    Thread-safe and snapshot-isolated by construction; every answer
    carries the version it was admitted under.
    """

    name = "service"

    def __init__(
        self,
        service,
        *,
        method: str = "auto",
        rewrite: str = "auto",
    ):
        self._service = service
        self._method = method
        self._rewrite = rewrite

    @classmethod
    def for_scenario(cls, scenario: Scenario, *, store="instance", **kwargs):
        from ..server import ReasoningService

        service = ReasoningService(
            scenario.program, facts=scenario.database, store=store
        )
        return cls(service, **kwargs)

    @property
    def service(self):
        return self._service

    def worker(self) -> "ServiceTarget":
        return self

    def baseline_version(self) -> int:
        return self._service.current_version

    def query(self, text: str) -> Tuple[Tuple[Tuple[str, ...], ...], int]:
        result = self._service.query(
            text,
            method=self._method,
            rewrite=self._rewrite,
        )
        return result.answers, result.version

    def update(self, changes: str) -> int:
        return self._service.apply(changes).version

    def close(self) -> None:
        pass


class ClientTarget:
    """A live reasoning daemon over real sockets.

    :meth:`worker` opens one connection per replay worker (the server
    is thread-per-connection; sharing one socket would serialize the
    load at the client).  The client's transparent reconnect keeps a
    long replay alive across a daemon hiccup.
    """

    name = "server"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7777,
        *,
        timeout: float = 60.0,
        method: str = "auto",
        rewrite: str = "auto",
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._method = method
        self._rewrite = rewrite
        self._clients: List[object] = []
        self._lock = threading.Lock()
        self._primary = self._connect()

    def _connect(self):
        from ..server import ReasoningClient

        client = ReasoningClient(self.host, self.port, timeout=self.timeout)
        with self._lock:
            self._clients.append(client)
        return client

    def worker(self) -> "_ClientWorker":
        return _ClientWorker(self, self._connect())

    def baseline_version(self) -> int:
        return self._primary.ping()

    def query(self, text: str):
        return _ClientWorker(self, self._primary).query(text)

    def update(self, changes: str) -> int:
        return _ClientWorker(self, self._primary).update(changes)

    def close(self) -> None:
        with self._lock:
            clients, self._clients = self._clients, []
        for client in clients:
            try:
                client.close()
            except OSError:  # pragma: no cover — teardown best effort
                pass


class _ClientWorker:
    """One worker's private connection, presenting the target surface."""

    def __init__(self, target: ClientTarget, client):
        self._target = target
        self._client = client

    def query(self, text: str) -> Tuple[Tuple[Tuple[str, ...], ...], int]:
        result = self._client.query(
            text,
            method=self._target._method,
            rewrite=self._target._rewrite,
        )
        return result.answers, result.version

    def update(self, changes: str) -> int:
        return self._client.update(changes)["version"]

    def close(self) -> None:
        pass


# -- ground truth ----------------------------------------------------------


class _GroundTruth:
    """Per-version expected answers, derived from the trace itself.

    The trace's update stream is replayed (in trace order) over the
    scenario's base EDB; version ``base + k`` maps to the state after
    the ``k``-th *effective* batch.  Expected answer digests are
    computed lazily — one semi-naive fixpoint per queried version —
    and cached per (query, version).
    """

    def __init__(self, trace: Trace, scenario: Scenario, base_version: int):
        self._program = scenario.program
        self._states: Dict[int, frozenset] = {}
        self._fixpoints: Dict[int, object] = {}
        self._digests: Dict[Tuple[str, int], str] = {}
        self._lock = threading.Lock()
        state = set(scenario.database)
        version = base_version
        self._states[version] = frozenset(state)
        for op in trace.ops:
            if op.kind != "update":
                continue
            inserts, retracts = ChangeSet.parse(op.changes).net()
            effective_retracts = [a for a in retracts if a in state]
            effective_inserts = [a for a in inserts if a not in state]
            if not effective_retracts and not effective_inserts:
                continue
            state.difference_update(effective_retracts)
            state.update(effective_inserts)
            version += 1
            self._states[version] = frozenset(state)

    def knows(self, version: int) -> bool:
        return version in self._states

    def expected_digest(self, query_text: str, version: int) -> str:
        from ..datalog.seminaive import seminaive

        key = (query_text, version)
        with self._lock:
            cached = self._digests.get(key)
        if cached is not None:
            return cached
        with self._lock:
            fixpoint = self._fixpoints.get(version)
        if fixpoint is None:
            computed = seminaive(
                Database(self._states[version]), self._program
            ).instance
            with self._lock:
                fixpoint = self._fixpoints.setdefault(version, computed)
        digest = answer_digest(parse_query(query_text).evaluate(fixpoint))
        with self._lock:
            return self._digests.setdefault(key, digest)


# -- the replay driver -----------------------------------------------------


@dataclass
class ReplayResult:
    """One replay run: latency accounting plus the verification verdict."""

    target: str
    mode: str                       # "closed" | "open"
    workers: int
    rate: Optional[float] = None
    wall_seconds: float = 0.0
    ops_run: int = 0
    verified: int = 0
    latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    lateness: LatencyHistogram = field(default_factory=LatencyHistogram)
    mismatches: List[dict] = field(default_factory=list)
    unknown_versions: List[dict] = field(default_factory=list)
    errors: List[dict] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.ops_run / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.unknown_versions or self.errors)

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "mode": self.mode,
            "workers": self.workers,
            "rate": self.rate,
            "wall_seconds": self.wall_seconds,
            "ops_run": self.ops_run,
            "throughput_ops_per_sec": self.throughput,
            "verified": self.verified,
            "latency": {
                kind: hist.summary()
                for kind, hist in self.latency.items()
                if hist.count
            },
            "lateness": (
                self.lateness.summary() if self.lateness.count else None
            ),
            "mismatches": self.mismatches[:10],
            "unknown_versions": self.unknown_versions[:10],
            "errors": self.errors[:10],
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"replayed {self.ops_run} op(s) against {self.target} "
            f"({self.mode} loop, {self.workers} worker(s)"
            + (f", {self.rate:g} ops/s target" if self.rate else "")
            + f") in {self.wall_seconds:.2f}s "
            f"— {self.throughput:.1f} ops/s",
        ]
        for kind in ("all",) + OP_KINDS:
            hist = self.latency.get(kind)
            if hist is None or not hist.count:
                continue
            lines.append(
                f"  {kind:13s} {hist.count:6d} op(s)  "
                f"p50 {hist.p50 * 1000:8.2f}ms  "
                f"p99 {hist.p99 * 1000:8.2f}ms  "
                f"max {hist.max * 1000:8.2f}ms"
            )
        if self.lateness.count:
            lines.append(
                f"  lateness      {self.lateness.count:6d} op(s)  "
                f"p50 {self.lateness.p50 * 1000:8.2f}ms  "
                f"p99 {self.lateness.p99 * 1000:8.2f}ms  "
                f"max {self.lateness.max * 1000:8.2f}ms"
            )
        lines.append(
            f"  verified {self.verified} answer(s): "
            f"{len(self.mismatches)} mismatch(es), "
            f"{len(self.unknown_versions)} unknown version(s), "
            f"{len(self.errors)} error(s)"
        )
        return "\n".join(lines)


class _UpdateSequencer:
    """Admits updates in trace order; queries pass through untouched."""

    def __init__(self, trace: Trace):
        self._sequence = {
            op.index: position
            for position, op in enumerate(
                op for op in trace.ops if op.kind == "update"
            )
        }
        self._applied = 0
        self._condition = threading.Condition()

    def run(self, op_index: int, operation):
        turn = self._sequence[op_index]
        with self._condition:
            while self._applied != turn:
                self._condition.wait(timeout=60)
            try:
                return operation()
            finally:
                self._applied += 1
                self._condition.notify_all()


def replay_trace(
    trace: Trace,
    target,
    *,
    workers: int = 1,
    rate: Union[None, float, str] = None,
    verify: bool = True,
    scenario: Optional[Scenario] = None,
) -> ReplayResult:
    """Replay *trace* against *target* and account every latency.

    ``rate=None`` is the closed loop: *workers* threads issue ops
    back-to-back.  A numeric ``rate`` (ops/sec) or ``rate="trace"``
    (honour each op's recorded ``at``) is the open loop: ops are held
    until their scheduled instant, and the gap between schedule and
    actual issue is recorded in the lateness histogram — workers all
    busy at an op's deadline *is* the signal, not an error.

    With ``verify=True`` (the default) every query/point-lookup answer
    is digest-checked against from-scratch evaluation on the EDB state
    of its admitted version; *scenario* overrides the trace-embedded
    generator record as the ground-truth base.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(rate, str):
        if rate != "trace":
            raise ValueError(
                f"rate must be a number, None, or 'trace', got {rate!r}"
            )
    elif rate is not None and rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    trace.validate()
    truth: Optional[_GroundTruth] = None
    if verify:
        if scenario is None:
            scenario = materialize_scenario(trace)
        truth = _GroundTruth(trace, scenario, target.baseline_version())

    result = ReplayResult(
        target=target.name,
        mode="closed" if rate is None else "open",
        workers=workers,
        rate=rate if isinstance(rate, (int, float)) else None,
        latency={kind: LatencyHistogram() for kind in ("all",) + OP_KINDS},
    )
    sequencer = _UpdateSequencer(trace)
    ops = trace.ops
    cursor = iter(range(len(ops)))
    cursor_lock = threading.Lock()
    record_lock = threading.Lock()
    epoch = time.perf_counter()

    def scheduled_at(op) -> float:
        if rate == "trace":
            return op.at
        return op.index / rate  # numeric open-loop override

    def run_worker() -> None:
        handle = target.worker()
        try:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                op = ops[index]
                if rate is not None:
                    due = scheduled_at(op)
                    while True:
                        now = time.perf_counter() - epoch
                        if now >= due:
                            break
                        time.sleep(min(0.02, due - now))
                    result.lateness.record(
                        (time.perf_counter() - epoch) - due
                    )
                began = time.perf_counter()
                try:
                    if op.kind == "update":
                        sequencer.run(
                            op.index, lambda: handle.update(op.changes)
                        )
                        answers = version = None
                    else:
                        answers, version = handle.query(op.query)
                except Exception as error:
                    with record_lock:
                        result.errors.append(
                            {"index": op.index, "error": repr(error)}
                        )
                    continue
                elapsed = time.perf_counter() - began
                result.latency["all"].record(elapsed)
                result.latency[op.kind].record(elapsed)
                with record_lock:
                    result.ops_run += 1
                if truth is None or op.kind == "update":
                    continue
                if not truth.knows(version):
                    with record_lock:
                        result.unknown_versions.append(
                            {"index": op.index, "version": version}
                        )
                    continue
                expected = truth.expected_digest(op.query, version)
                with record_lock:
                    result.verified += 1
                    if answer_digest(answers) != expected:
                        result.mismatches.append(
                            {
                                "index": op.index,
                                "query": op.query,
                                "version": version,
                                "answers": len(answers),
                            }
                        )
        finally:
            handle.close()

    threads = [
        threading.Thread(target=run_worker, name=f"replay-{n}", daemon=True)
        for n in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    result.wall_seconds = time.perf_counter() - epoch
    stuck = [thread.name for thread in threads if thread.is_alive()]
    if stuck:
        result.errors.append(
            {"index": -1, "error": f"workers did not finish: {stuck}"}
        )
    return result
