"""One replicate of a serve workload: a fresh ``python -m repro serve``
daemon, one closed-loop connection, the frozen op list, then the daemon
is killed.

The client is a raw socket: a request frame goes out, the response line
comes back, and the bytes stay undecoded until the timed window has
closed, so client-side JSON is not in the latency.
"""

from __future__ import annotations

import json
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from common import child_env, cpu_ms, peak_rss_mb
from workloads import ServeInputs

#: No op of any workload takes a hundredth of this; a daemon that goes
#: silent fails the replicate instead of hanging the benchmark.
OP_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0


@dataclass
class ServeReplicate:
    setup_s: float                   # spawn → port published and warm-up answered
    window_s: float                  # first send → last response
    latencies: List[float]           # per op, seconds
    raw: List[bytes]                 # response lines, undecoded
    rss_mb: float
    cpu_ms: float                    # daemon utime+stime over the window
    baseline_version: int            # EDB version the warm-up was admitted under
    responses: List[dict] = field(default_factory=list)  # decoded after the window
    stats: Optional[dict] = None     # the daemon's `stats` payload (traced only)
    ping_s: List[float] = field(default_factory=list)  # traced only


class Daemon:
    """A ``repro serve`` child on an ephemeral port, killed on exit.

    Killed, not asked to ``shutdown``: the polite path sleeps out a
    0.5 s poll, which would be most of a replicate.
    """

    def __init__(self, program_file: Path):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(program_file),
             "--port", "0"],
            env=child_env(),
            cwd=program_file.parent,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._published_port()
            self.sock = socket.create_connection(
                ("127.0.0.1", self.port), timeout=OP_TIMEOUT_S
            )
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
        except BaseException:
            self.close()
            raise

    def _published_port(self) -> int:
        # The daemon prints "repro: serving … on host:port" (flushed)
        # once it listens; waiting on the pipe needs no polling interval.
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        if " on " not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def call(self, frame: bytes) -> bytes:
        self.sock.sendall(frame)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return line

    def close(self) -> None:
        for closable in (getattr(self, "reader", None), getattr(self, "sock", None)):
            if closable is not None:
                closable.close()
        self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_replicate(
    program_file: Path, inputs: ServeInputs, *, spans=None
) -> ServeReplicate:
    """Spawn, warm, replay the op list once, read /proc, kill.

    With *spans* (a ``layers.Spans``) the replicate is traced: every
    response is decoded and two spans recorded *inside* the window — the
    client round trip and, within it, the server's own ``wall_ms`` (laid
    centrally: the server's clock is not ours) — which is the work
    ``trace.overhead_pct`` measures.
    """
    frames: Sequence[bytes] = [op.frame for op in inputs.ops]
    with Daemon(program_file) as daemon:
        warm = [daemon.call(frame) for frame in inputs.warmup]
        setup_s = time.perf_counter() - daemon.started
        pid = daemon.process.pid
        latencies: List[float] = []
        raw: List[bytes] = []
        call = daemon.call
        clock = time.perf_counter
        cpu_before = cpu_ms(pid)
        opened = clock()
        for index, frame in enumerate(frames):
            sent = clock()
            line = call(frame)
            done = clock()
            raw.append(line)
            latencies.append(done - sent)
            if spans is not None:
                service_s = json.loads(line).get("wall_ms", 0.0) / 1e3
                lead = max(0.0, done - sent - service_s) / 2
                root = spans.add("client.rtt", sent, done, None, index)
                spans.add("server.service", sent + lead, sent + lead + service_s,
                          root, index)
        window_s = clock() - opened
        cpu_after = cpu_ms(pid)
        rss = peak_rss_mb(pid)
        replicate = ServeReplicate(
            setup_s=setup_s,
            window_s=window_s,
            latencies=latencies,
            raw=raw,
            rss_mb=rss,
            cpu_ms=cpu_after - cpu_before,
            baseline_version=json.loads(warm[0]).get("version", -1),
        )
        if spans is not None:
            ping = b'{"op":"ping"}\n'
            for _ in range(200):
                sent = clock()
                call(ping)
                replicate.ping_s.append(clock() - sent)
            replicate.stats = json.loads(call(b'{"op":"stats"}\n'))["stats"]
    return replicate
