"""The embeddable serving core: one shared session, many concurrent
readers, snapshot-isolated updates.

:class:`ReasoningService` is the engine-facing half of the server — the
socket daemon (:mod:`repro.server.daemon`) is a thin protocol adapter
over it, and tests/benchmarks drive it in-process with plain threads.

Design:

* one :class:`~repro.api.Session` owns program compilation and
  planning (compile-once, adorned-program cache, prepared plans, plan
  explanations) and holds no fact: its EDB stays empty;
* a :class:`~repro.server.snapshot.SnapshotManager` owns the EDB as a
  chain of immutable versions — the only place the service keeps
  facts; every query is *admitted* under a lease on the then-current
  version and evaluates against that frozen store no matter how many
  updates land while it runs;
* each version carries its own :class:`~repro.api.cache.FixpointCache`
  — saturated materializations and star abstractions valid for exactly
  that EDB — and a query reads and fills the cache of the version it
  was admitted on.  On ``apply``, the new version's cache is the
  previous head's ``advance`` onto the new store: maintainable
  fixpoints are copied and upgraded over just the change batch
  *before* the version becomes head, so a reader finds either head
  warm and the old version's stores stay exact for its in-flight
  readers.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..api.execution import execute_plan
from ..api.planner import _store_label
from ..api.session import Session
from ..api.stream import AnswerStream
from ..incremental import ChangeSet
from ..storage.sharded import SavedState, StateDirectory, program_fingerprint
from .snapshot import SnapshotManager

__all__ = ["QueryResult", "ReasoningService", "UpdateResult"]


@dataclass(frozen=True)
class QueryResult:
    """One answered query: the full answer set plus reconciliation data."""

    query: str
    answers: Tuple[Tuple[str, ...], ...]
    version: int
    wall_ms: float
    stats: dict = field(compare=False)
    truncated: bool = False

    def as_payload(self) -> dict:
        return {
            "query": self.query,
            "answers": [list(row) for row in self.answers],
            "count": len(self.answers),
            "version": self.version,
            "wall_ms": self.wall_ms,
            "truncated": self.truncated,
            "stats": self.stats,
        }


@dataclass(frozen=True)
class UpdateResult:
    """One applied change batch, as the protocol reports it."""

    version: int
    added: int
    dropped: int
    maintained: int
    migrated: int
    fallbacks: Tuple[Tuple[str, str], ...]
    wall_ms: float
    effective: bool

    def as_payload(self) -> dict:
        return {
            "version": self.version,
            "added": self.added,
            "dropped": self.dropped,
            "maintained": self.maintained,
            "migrated": self.migrated,
            "fallbacks": [list(pair) for pair in self.fallbacks],
            "wall_ms": self.wall_ms,
            "effective": self.effective,
        }


class ReasoningService:
    """A long-lived, thread-safe reasoning core over one program.

    Queries may run from any number of threads; updates are serialized
    by a writer lock and never block in-flight readers (they read their
    admitted version).  ``store`` names the backend used both for the
    EDB snapshots and the engines' materializations.
    """

    def __init__(
        self,
        source: Union[str, Path, object],
        *,
        store: str = "instance",
        name: str = "",
        facts=(),
        state_dir: Union[str, Path, None] = None,
    ):
        self._session = Session(store=store)
        if isinstance(source, (str, Path)):
            # Program text or a file of it; its facts seed the EDB.
            self._compiled, seed = self._session.parse(source, name=name)
            seed = [*seed, *facts]
        else:
            # An in-memory Program/CompiledProgram (the embeddable
            # path — benchmarks hand over generated scenarios).
            self._compiled = self._session.compile(source)
            seed = facts
        # Warm start: with a state directory holding a checkpoint of
        # the *same program* (content-fingerprinted), version 0 is cut
        # from the checkpointed EDB instead, and the head's fixpoint
        # cache re-seeded from the persisted materializations — the
        # first query answers from cache instead of resaturating.
        self._state = (
            StateDirectory(state_dir) if state_dir is not None else None
        )
        self._program_key = program_fingerprint(self._compiled)
        self.warm_started = False
        restored = (
            self._state.load(self._program_key) if self._state else None
        )
        self._snapshots = SnapshotManager(
            seed if restored is None else restored.edb, store=store
        )
        if restored is not None:
            self._snapshots.head.caches.restore(
                restored.fixpoints, self._compiled, store
            )
            self.warm_started = True
        self._write_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.started_at = time.time()
        self.queries_total = 0
        self.updates_total = 0
        self.errors_total = 0
        self.active_streams = 0
        self.peak_active_streams = 0
        self.migrated_total = 0
        self.migration_fallbacks_total = 0

    # -- warm-start persistence --------------------------------------------

    def _checkpoint_locked(self) -> Optional[Path]:
        """Persist head EDB + its cacheable fixpoints (write lock held)."""
        if self._state is None:
            return None
        head = self._snapshots.head
        state = SavedState(
            program_key=self._program_key,
            store_name=_store_label(self._session.store),
            version=head.number,
            edb=tuple(head.store),
            fixpoints=tuple(head.caches.records()),
        )
        return self._state.save(state)

    def checkpoint(self) -> Optional[Path]:
        """Write a warm-start checkpoint now; None without a state dir.

        Called automatically after every effective :meth:`apply` and by
        the daemon on graceful shutdown; embedders (and the budgeted
        benchmark's kill/restart cycle) may call it directly before
        tearing the service down.
        """
        if self._state is None:
            return None
        with self._write_lock:
            return self._checkpoint_locked()

    @property
    def state_directory(self) -> Optional[StateDirectory]:
        return self._state

    # -- introspection -----------------------------------------------------

    @property
    def session(self) -> Session:
        return self._session

    @property
    def snapshots(self) -> SnapshotManager:
        return self._snapshots

    @property
    def program_name(self) -> str:
        return self._compiled.name

    @property
    def current_version(self) -> int:
        return self._snapshots.head_version

    # -- read path ---------------------------------------------------------

    def stream(
        self,
        query: str,
        *,
        method: str = "auto",
        rewrite: str = "auto",
        **engine_kwargs,
    ) -> AnswerStream:
        """Admit *query* under the current snapshot and return its lazy
        stream.

        The stream evaluates against the admitted version's frozen EDB
        for its whole life — updates applied after admission are
        invisible (snapshot isolation).  The lease is released when the
        stream drains, errors, or is closed; an abandoned stream's
        lease is reclaimed by a GC finalizer.
        """
        lease = self._snapshots.current()
        try:
            plan = self._session.plan(
                query, method=method, rewrite=rewrite, **engine_kwargs
            )
            stream = execute_plan(
                plan, lease.store, cache=lease.snapshot.caches
            )
        except BaseException:
            lease.release()
            with self._stats_lock:
                self.errors_total += 1
            raise
        stream.stats.snapshot_version = lease.version
        with self._stats_lock:
            self.queries_total += 1
            self.active_streams += 1
            self.peak_active_streams = max(
                self.peak_active_streams, self.active_streams
            )

        def released() -> None:
            lease.release()
            with self._stats_lock:
                self.active_streams -= 1

        stream.on_release(released)
        # Backstop for abandoned streams: releasing twice is harmless
        # (lease release is idempotent) but leaking a lease would pin
        # the version forever.
        weakref.finalize(stream, lease.release)
        return stream

    def query(
        self,
        query: str,
        *,
        method: str = "auto",
        rewrite: str = "auto",
        first: Optional[int] = None,
        **engine_kwargs,
    ) -> QueryResult:
        """Answer *query* eagerly: drain the stream (or its first *n*)
        and release the snapshot lease before returning."""
        stream = self.stream(
            query, method=method, rewrite=rewrite, **engine_kwargs
        )
        try:
            if first is not None:
                # One tuple past *first* decides whether anything was
                # cut: the engine may not know it is exhausted yet.
                rows = stream.first(first + 1)
                truncated = len(rows) > first
                rows = rows[:first]
            else:
                rows = stream.to_sorted()
                truncated = False
            answers = tuple(
                tuple(str(term) for term in row) for row in rows
            )
            return QueryResult(
                query=query.strip(),
                answers=answers,
                version=stream.stats.snapshot_version,
                wall_ms=stream.stats.wall_ms,
                stats=stream.stats.as_dict(),
                truncated=truncated,
            )
        except BaseException:
            with self._stats_lock:
                self.errors_total += 1
            raise
        finally:
            stream.close()

    def explain(self, query: str, **plan_kwargs) -> str:
        return self._session.explain(query, **plan_kwargs)

    def lint(
        self,
        program: Optional[str] = None,
        *,
        select=None,
        ignore=None,
    ) -> dict:
        """The lint report as a JSON-ready payload (the ``lint`` op).

        With *program* text, lints that text statelessly (a syntax
        error becomes an ``E001`` finding, never an exception).
        Without it, serves the *loaded* program's report — cached on
        the compiled artifact, so repeated calls run no passes.
        """
        from ..lint import lint_source

        if program is None:
            report = self._compiled.diagnostics.filter(select, ignore)
            name = self.program_name
        else:
            report = lint_source(program, select=select, ignore=ignore)
            name = "<request>"
        return {"program": name, **report.as_payload()}

    # -- write path --------------------------------------------------------

    def apply(
        self, changes: Union[ChangeSet, str]
    ) -> UpdateResult:
        """Apply one change batch and install the next EDB version.

        In-flight readers keep their admitted version; queries admitted
        after this returns see the new one.  Maintainable fixpoints
        cached on the previous head are migrated (copy + incremental
        maintenance over just this batch) so the new version starts
        warm; demand-specific (magic) and otherwise unmaintainable
        entries are dropped with the reason recorded.
        """
        if isinstance(changes, str):
            changes = ChangeSet.parse(changes)
        started = time.perf_counter()
        with self._write_lock:
            inserted, retracted = changes.effective(
                self._snapshots.head.store
            )
            if not inserted and not retracted:
                wall_ms = (time.perf_counter() - started) * 1000.0
                return UpdateResult(
                    version=self._snapshots.head_version,
                    added=0,
                    dropped=0,
                    maintained=0,
                    migrated=0,
                    fallbacks=(),
                    wall_ms=wall_ms,
                    effective=False,
                )
            version, maintained, fallbacks = self._snapshots.install(
                inserted, retracted
            )
            # Keep the warm-start checkpoint current: a crash after
            # this point restarts at this version, not at serve start.
            self._checkpoint_locked()
        wall_ms = (time.perf_counter() - started) * 1000.0
        with self._stats_lock:
            self.updates_total += 1
            self.migrated_total += len(maintained)
            self.migration_fallbacks_total += len(fallbacks)
        return UpdateResult(
            version=version.number,
            added=len(inserted),
            dropped=len(retracted),
            maintained=len(maintained),
            migrated=len(maintained),
            fallbacks=tuple(fallbacks),
            wall_ms=wall_ms,
            effective=True,
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` payload: admission counters, per-version
        refcounts, cache rates, and resident/spilled bytes.

        Per-version figures are measured with ONE shared visited-set,
        head first: shared structure — an overlay chain's common base,
        the shared interning table — is charged to the head exactly
        once, so summing the per-version rows never double counts
        (the same invariant ``memory_report(seen)`` gives composite
        stores, applied at the version-chain level).
        """
        head = self._snapshots.head
        seen: set = set()
        versions: Dict[str, dict] = {}
        head_report = None
        for version in self._snapshots.versions_snapshot():
            report = version.store.memory_report(seen)
            if version is head:
                head_report = report
            versions[str(version.number)] = {
                "atoms": report.atom_count,
                "resident_bytes": report.resident_bytes,
                "spilled_bytes": report.spilled_bytes,
            }
        with self._stats_lock:
            counters = {
                "queries_total": self.queries_total,
                "updates_total": self.updates_total,
                "errors_total": self.errors_total,
                "active_streams": self.active_streams,
                "peak_active_streams": self.peak_active_streams,
                "migrated_fixpoints_total": self.migrated_total,
                "migration_fallbacks_total": self.migration_fallbacks_total,
            }
        return {
            "program": self.program_name,
            "uptime_seconds": time.time() - self.started_at,
            "warm_started": self.warm_started,
            "state_dir": (
                str(self._state.path) if self._state is not None else None
            ),
            **counters,
            "snapshots": self._snapshots.stats(),
            "head_caches": head.caches.stats(),
            "prepared": self._session.prepared_stats(),
            "memory": {
                "edb_resident_bytes": head_report.resident_bytes,
                "edb_spilled_bytes": head_report.spilled_bytes,
                "edb_atoms": head_report.atom_count,
                "backend": head_report.backend,
                "versions": versions,
                "resident_bytes_total": sum(
                    row["resident_bytes"] for row in versions.values()
                ),
                "spilled_bytes_total": sum(
                    row["spilled_bytes"] for row in versions.values()
                ),
            },
        }
