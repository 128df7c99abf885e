"""repro.workloads — seeded, skew-shaped traffic for the reasoning engine.

Seeded zipfian op streams over the churn graph (:mod:`.generate`) and
the shared log-bucket latency histogram (:mod:`.latency`) the benchmarks
report percentiles from.  The end-to-end benchmark (``benchmarks/e2e/``)
builds its serving op lists from :func:`generate_trace` and
:func:`materialize_scenario`; traces are generated in-process, never
written to or read from files.
"""

from .generate import (
    MIXES,
    Trace,
    TraceOp,
    ZipfianSampler,
    generate_trace,
    materialize_scenario,
)
from .latency import LatencyHistogram

__all__ = [
    "LatencyHistogram",
    "MIXES",
    "Trace",
    "TraceOp",
    "ZipfianSampler",
    "generate_trace",
    "materialize_scenario",
]
