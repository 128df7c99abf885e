"""repro.server — a concurrent reasoning server with snapshot-isolated
reads and live updates.

The layering, bottom-up:

* :mod:`~repro.server.snapshot` — MVCC over the EDB: immutable
  refcounted versions (``DeltaOverlay`` chains over frozen bases),
  installed atomically, collected when their last reader drains;
* :mod:`~repro.server.service` — :class:`ReasoningService`, the
  embeddable core: one thread-safe session for planning/compilation,
  per-version fixpoint caches migrated incrementally across updates;
* :mod:`~repro.server.protocol` / :mod:`~repro.server.daemon` — the
  newline-delimited-JSON wire format and the threaded TCP daemon;
* :mod:`~repro.server.client` — :class:`ReasoningClient`, the blocking
  client library the CLI subcommands and the benchmark use.

CLI: ``python -m repro serve PROGRAM`` / ``python -m repro client ...``.
"""

from .client import ReasoningClient, RemoteAnswers, ServerError
from .daemon import ReasoningServer
from .service import QueryResult, ReasoningService, UpdateResult
from .snapshot import SnapshotLease, SnapshotManager, SnapshotVersion

__all__ = [
    "QueryResult",
    "ReasoningClient",
    "ReasoningServer",
    "ReasoningService",
    "RemoteAnswers",
    "ServerError",
    "SnapshotLease",
    "SnapshotManager",
    "SnapshotVersion",
    "UpdateResult",
]
