"""The client library: a blocking, line-oriented connection to a
:class:`~repro.server.daemon.ReasoningServer`.

>>> with ReasoningClient("127.0.0.1", 7777) as client:
...     client.query("q(X) :- path(a, X).").answers
(('b',), ('c',))

One socket, one request in flight at a time (the protocol supports
pipelining via ``id``; this client keeps to strict request/response).
Thread-safe: a lock serializes frames, so one client may be shared —
though one connection per thread is the better pattern, and what the
concurrency benchmark does.

Two resilience affordances for long-lived callers (a load driver
holds connections across thousands of ops):

* every operation takes ``timeout=`` to bound *that* round-trip —
  a slow query times out without re-arming the whole connection;
* a request that hits a dead socket (``BrokenPipeError``,
  ``ConnectionResetError``, a clean server-side close) is retried
  exactly once on a fresh connection.  One retry is safe for this
  protocol's idempotent reads and at-most-once-delivered writes: a
  request that *died on send* never reached the server, and one whose
  *response was lost* surfaces as ``ConnectionError`` to the caller on
  the second failure rather than being silently re-applied.  Timeouts
  never trigger reconnection — the request may still be in flight.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Iterable, Optional, Tuple, Union

__all__ = ["RemoteAnswers", "ReasoningClient", "ServerError"]


class ServerError(RuntimeError):
    """The server answered ``ok: false``; carries the remote error."""

    def __init__(self, message: str, kind: str = "Exception"):
        super().__init__(message)
        self.kind = kind


class RemoteAnswers:
    """A query response: answer tuples plus the server's stream stats."""

    __slots__ = ("query", "answers", "version", "wall_ms", "truncated", "stats")

    def __init__(self, payload: dict):
        self.query = payload.get("query", "")
        self.answers: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(row) for row in payload.get("answers", ())
        )
        self.version: int = payload.get("version", -1)
        self.wall_ms: float = payload.get("wall_ms", 0.0)
        self.truncated: bool = payload.get("truncated", False)
        self.stats: dict = payload.get("stats", {})

    def __iter__(self):
        return iter(self.answers)

    def __len__(self) -> int:
        return len(self.answers)

    def to_set(self) -> frozenset:
        return frozenset(self.answers)

    def __repr__(self) -> str:
        return (
            f"RemoteAnswers({len(self.answers)} rows @v{self.version}, "
            f"{self.wall_ms:.2f}ms)"
        )


class ReasoningClient:
    """A connection to a running reasoning server.

    Context-manager friendly; raises :class:`ServerError` when the
    server reports a failure, :class:`ConnectionError` when the socket
    drops mid-exchange.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7777, timeout: float = 60.0
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reconnects = 0
        self._lock = threading.Lock()
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._reader = self._sock.makefile("r", encoding="utf-8")

    # -- plumbing ----------------------------------------------------------

    def call(
        self, request: dict, *, timeout: Optional[float] = None
    ) -> dict:
        """One request/response round-trip; the raw response dict.

        ``timeout`` bounds this round-trip only (seconds; ``None``
        keeps the connection default).  A dead socket is retried once
        on a fresh connection; a timeout is not (the request may still
        be executing server-side), surfacing as ``TimeoutError``.
        """
        frame = (json.dumps(request, separators=(",", ":")) + "\n").encode(
            "utf-8"
        )
        with self._lock:
            for attempt in (0, 1):
                try:
                    if timeout is not None:
                        self._sock.settimeout(timeout)
                    try:
                        self._sock.sendall(frame)
                        line = self._reader.readline()
                    finally:
                        if timeout is not None:
                            self._sock.settimeout(self.timeout)
                    if line:
                        break
                    raise ConnectionError(
                        f"server at {self.host}:{self.port} closed the "
                        "connection"
                    )
                except socket.timeout as error:
                    # socket.timeout is an OSError, *not* a
                    # ConnectionError: never reconnect-and-resend here.
                    raise TimeoutError(
                        f"no response from {self.host}:{self.port} within "
                        f"{timeout if timeout is not None else self.timeout}s"
                    ) from error
                except ConnectionError:
                    if attempt:
                        raise
                    try:
                        self.close()
                    except OSError:
                        pass
                    self._connect()
                    self.reconnects += 1
        response = json.loads(line)
        if not response.get("ok", False):
            raise ServerError(
                response.get("error", "unknown server error"),
                response.get("kind", "Exception"),
            )
        return response

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ReasoningClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operations --------------------------------------------------------

    def ping(self, *, timeout: Optional[float] = None) -> int:
        """Round-trip liveness check; the current EDB version."""
        return self.call({"op": "ping"}, timeout=timeout)["version"]

    def query(
        self,
        query: str,
        *,
        method: str = "auto",
        rewrite: str = "auto",
        first: Optional[int] = None,
        timeout: Optional[float] = None,
        **engine_kwargs,
    ) -> RemoteAnswers:
        request = {"op": "query", "query": query}
        if method != "auto":
            request["method"] = method
        if rewrite != "auto":
            request["rewrite"] = rewrite
        if first is not None:
            request["first"] = first
        request.update(engine_kwargs)
        return RemoteAnswers(self.call(request, timeout=timeout))

    def update(
        self,
        changes: Union[str, Iterable[str]],
        *,
        timeout: Optional[float] = None,
    ) -> dict:
        """Apply a change batch (``+atom`` / ``-atom`` lines); the
        server's :class:`~repro.server.service.UpdateResult` payload."""
        if not isinstance(changes, str):
            changes = "\n".join(changes)
        return self.call(
            {"op": "update", "changes": changes}, timeout=timeout
        )

    def lint(
        self,
        program: Optional[str] = None,
        *,
        select=None,
        ignore=None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Lint *program* text on the server (or, when ``None``, the
        server's loaded program); the JSON diagnostics payload."""
        request: dict = {"op": "lint"}
        if program is not None:
            request["program"] = program
        if select:
            request["select"] = list(select)
        if ignore:
            request["ignore"] = list(ignore)
        return self.call(request, timeout=timeout)

    def stats(self, *, timeout: Optional[float] = None) -> dict:
        return self.call({"op": "stats"}, timeout=timeout)["stats"]

    def shutdown(self, *, timeout: Optional[float] = None) -> bool:
        """Ask the server to stop (acknowledged before it drains)."""
        return self.call({"op": "shutdown"}, timeout=timeout).get(
            "stopping", False
        )
