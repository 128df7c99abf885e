"""Shared plumbing of the end-to-end benchmark: where things live, how
children are launched, how ``/proc`` is read, the in-memory span log
and the fastest-quarter estimator every workload reports through.

The benchmark measures ``src/`` strictly from outside — its public
functions, the ``python -m repro serve`` daemon and its NDJSON socket —
so nothing here imports :mod:`repro` at module level; callers that need
it go through :func:`require_source` first.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Every file the benchmark writes (program files, span dumps, the
#: daemon's cwd) lives here, inside the checkout; ``.gitignore`` names it.
WORK = ROOT / ".bench_e2e"

CLK_TCK = os.sysconf("SC_CLK_TCK")


def require_source() -> None:
    """Exit non-zero unless the program under test is in this checkout.

    The benchmark must fail, not measure some other installation, when
    run from a directory that holds only the benchmark's own files.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"benchmarks/e2e: no program to measure: {SRC / 'repro'} is "
            "missing (run from a full checkout)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    found = Path(repro.__file__).resolve()
    if SRC not in found.parents:
        print(
            f"benchmarks/e2e: 'import repro' resolved to {found}, not to "
            f"this checkout's {SRC}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def child_env() -> Dict[str, str]:
    """Environment of every daemon and child: this checkout's ``src`` on
    the path, a fixed hash seed (set iteration order — hence every
    ``=``-marked count — repeats), bytecode caching left on (an
    application would have it), temp files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_forced(session, program):
    """``Session.compile`` with its lazy halves forced — analysis, strata
    and lint run once per program either way; forcing them books them
    under ``api.compile`` instead of under the first query."""
    compiled = session.compile(program)
    compiled.analysis, compiled.diagnostics
    return compiled


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of *pid* in MiB (the high-water mark of resident memory)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_ms(pid: int) -> float:
    """User + system CPU time *pid* has consumed, in milliseconds."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1000.0 / CLK_TCK


# -- estimators --------------------------------------------------------------


def quarter(n: int) -> int:
    """Size of the 'fastest quarter' of *n* replicates: ⌈n/4⌉, at least 3."""
    return min(n, max(3, math.ceil(n / 4)))


def fastest_quarter(values: Sequence[float], *, highest: bool = False) -> float:
    """Mean of the fastest quarter of per-replicate *values* — the
    smallest, or with ``highest`` (a throughput) the largest.

    Interference on a shared box only ever slows a replicate, so the
    slow tail is noise and the fast end is the program.
    """
    best = sorted(values, reverse=highest)[: quarter(len(values))]
    return sum(best) / len(best)


class Spans:
    """In-memory span rows ``[id, name, start, end, parent, op]``;
    ``add`` returns the new span's id."""

    def __init__(self) -> None:
        self.rows: List[list] = []

    def add(self, name: str, start: float, end: float, parent, op) -> int:
        self.rows.append([len(self.rows), name, start, end, parent, op])
        return len(self.rows) - 1


def spread_pct(values: Sequence[float]) -> float:
    """Interquartile range as a percentage of the median (the driver's
    steadiness figure); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return 100.0 * (q3 - q1) / middle if middle else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (share in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))
    return ordered[rank]
