"""The socket daemon: a :class:`ReasoningService` behind a TCP listener.

One thread per connection (``ThreadingTCPServer``), all of them sharing
the service — which is exactly the concurrency the snapshot layer is
built for: every query is admitted under the then-current EDB version,
updates from any connection install new versions without disturbing
in-flight readers.

Lifecycle: :meth:`ReasoningServer.serve_forever` blocks until
:meth:`shutdown` (from a signal handler, a ``shutdown`` frame, or
another thread).  Shutdown is *graceful*: the listener stops accepting,
open connections get up to ``drain_timeout`` seconds to finish their
current request, and only then are sockets torn down.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Optional, Tuple

from .protocol import (
    MAX_REQUEST_BYTES,
    ProtocolError,
    decode_request,
    encode_response,
    error_response,
    handle_request,
)
from .service import ReasoningService

__all__ = ["ReasoningServer"]


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: read frames, answer frames, until EOF."""

    def handle(self) -> None:
        server: "ReasoningServer" = self.server  # type: ignore[assignment]
        server._track_connection(self, +1)
        try:
            # Never ``for raw in self.rfile``: that buffers a line of
            # any length.
            while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
                if len(raw) > MAX_REQUEST_BYTES:
                    self._send(error_response(ProtocolError(
                        f"request line exceeds {MAX_REQUEST_BYTES} bytes; "
                        f"closing the connection"
                    )))
                    return
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    request = decode_request(line)
                except ProtocolError as error:
                    self._send(error_response(error))
                    continue
                response = handle_request(server.service, request)
                if response is None:  # shutdown frame
                    self._send(
                        {"ok": True, "op": "shutdown", "stopping": True}
                    )
                    server.shutdown_async()
                    return
                self._send(response)
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # client went away mid-frame; nothing to clean up
        finally:
            server._track_connection(self, -1)

    def _send(self, response: dict) -> None:
        self.wfile.write(encode_response(response).encode("utf-8") + b"\n")
        self.wfile.flush()


class ReasoningServer(socketserver.ThreadingTCPServer):
    """A long-lived reasoning daemon over one program.

    ``port=0`` binds an ephemeral port (read it back from
    ``server_address``) — the tests and the benchmark run real sockets
    without port coordination.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: ReasoningService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 5.0,
    ):
        self.service = service
        self.drain_timeout = drain_timeout
        self._connections_lock = threading.Lock()
        self._connections = 0
        self._stopping = threading.Event()
        super().__init__((host, port), _ConnectionHandler)

    # -- introspection -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    @property
    def active_connections(self) -> int:
        with self._connections_lock:
            return self._connections

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    def _track_connection(self, handler, delta: int) -> None:
        with self._connections_lock:
            self._connections += delta

    # -- lifecycle ---------------------------------------------------------

    def serve_in_thread(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests/benchmarks)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread

    def shutdown_async(self) -> None:
        """Request shutdown without blocking (usable from handler and
        signal contexts, where ``shutdown()`` itself would deadlock)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        threading.Thread(
            target=self.shutdown, name="repro-shutdown", daemon=True
        ).start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for open connections to finish; True if they all did.

        Called after ``serve_forever`` returns: the listener no longer
        accepts, but connection threads may still be answering their
        last request.
        """
        deadline = time.monotonic() + (
            self.drain_timeout if timeout is None else timeout
        )
        while time.monotonic() < deadline:
            if self.active_connections == 0:
                return True
            time.sleep(0.02)
        return self.active_connections == 0

    def close(self) -> None:
        """Stop accepting, drain gracefully, release the socket."""
        self._stopping.set()
        self.shutdown()
        self.drain()
        self.server_close()


def probe(host: str, port: int, timeout: float = 1.0) -> bool:
    """True iff something accepts TCP connections at (host, port)."""
    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False
