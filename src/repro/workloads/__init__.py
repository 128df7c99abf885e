"""repro.workloads — seeded, skew-shaped traffic for the reasoning engine.

A versioned NDJSON trace schema (:mod:`.trace`), seeded zipfian
generators over benchsuite key spaces (:mod:`.generate`), and the
shared log-bucket latency histogram (:mod:`.latency`) the benchmarks
report percentiles from.  The end-to-end benchmark
(``benchmarks/e2e/``) builds its serving op lists from
:func:`generate_trace` and :func:`materialize_scenario`.

``python -m repro trace generate|summarize`` is the CLI surface.
"""

from .generate import (
    MIXES,
    TRACE_FAMILIES,
    ZipfianSampler,
    generate_trace,
    materialize_scenario,
)
from .latency import LatencyHistogram
from .trace import OP_KINDS, TRACE_SCHEMA, Trace, TraceError, TraceOp

__all__ = [
    "LatencyHistogram",
    "MIXES",
    "OP_KINDS",
    "TRACE_FAMILIES",
    "TRACE_SCHEMA",
    "Trace",
    "TraceError",
    "TraceOp",
    "ZipfianSampler",
    "generate_trace",
    "materialize_scenario",
]
