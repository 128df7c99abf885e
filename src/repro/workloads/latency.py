"""Shared latency accounting: a log-bucketed histogram.

The benchmark artifacts that report percentiles (``BENCH_server.json``)
go through :class:`LatencyHistogram`, so "p99" means one thing:
nearest-rank over geometric buckets, clamped to the observed min/max.

The buckets are geometric — bucket 0 is ``[0, base)`` and bucket *i*
covers ``[base·g^(i-1), base·g^i)`` with ``base`` one microsecond and
``g = 2^(1/8)`` by default — so the relative quantization error is
bounded (≤ ~9% with the default growth) regardless of whether the
samples are microsecond point lookups or second-long saturations, while
the storage stays a handful of integer counters instead of one float
per observation.  Recording is O(1) and thread-safe: benchmark reader
threads share one instance without coordination beyond the internal
lock.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """A thread-safe histogram of durations (seconds) in log buckets.

    >>> hist = LatencyHistogram()
    >>> for ms in (1, 2, 3, 50):
    ...     hist.record(ms / 1000.0)
    >>> hist.count
    4
    >>> 0.002 <= hist.percentile(0.50) <= 0.0033
    True
    """

    __slots__ = (
        "base",
        "growth",
        "_log_growth",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(self, *, base: float = 1e-6, growth: float = 2 ** 0.125):
        if base <= 0:
            raise ValueError(f"base must be positive, got {base}")
        if growth <= 1:
            raise ValueError(f"growth must exceed 1, got {growth}")
        self.base = base
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    @classmethod
    def of(cls, samples: Iterable[float], **kwargs) -> "LatencyHistogram":
        """A histogram pre-loaded with *samples* (seconds each)."""
        hist = cls(**kwargs)
        for sample in samples:
            hist.record(sample)
        return hist

    # -- recording ---------------------------------------------------------

    def _bucket(self, value: float) -> int:
        if value < self.base:
            return 0
        return 1 + int(math.log(value / self.base) / self._log_growth)

    def _representative(self, bucket: int) -> float:
        """The geometric midpoint of a bucket (half the base for 0)."""
        if bucket == 0:
            return self.base / 2.0
        return self.base * self.growth ** (bucket - 1) * math.sqrt(self.growth)

    def record(self, seconds: float) -> None:
        """Record one duration.  Negative durations are clamped to 0
        (clock adjustments mid-measurement, not caller errors)."""
        value = max(0.0, float(seconds))
        bucket = self._bucket(value)
        with self._lock:
            self._counts[bucket] = self._counts.get(bucket, 0) + 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold *other*'s samples into this histogram.

        Requires identical bucket geometry — merging histograms with
        different bases or growth factors would silently misfile counts.
        """
        if (other.base, other.growth) != (self.base, self.growth):
            raise ValueError(
                "cannot merge histograms with different bucket geometry"
            )
        with other._lock:
            counts = dict(other._counts)
            count, total = other._count, other._sum
            low, high = other._min, other._max
        with self._lock:
            for bucket, n in counts.items():
                self._counts[bucket] = self._counts.get(bucket, 0) + n
            self._count += count
            self._sum += total
            if low is not None and (self._min is None or low < self._min):
                self._min = low
            if high is not None and (self._max is None or high > self._max):
                self._max = high

    # -- reading -----------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._max is not None else 0.0

    def percentile(self, fraction: float) -> float:
        """The nearest-rank *fraction* percentile, in seconds.

        The last rank is the observed maximum itself, so
        ``percentile(1.0)`` is exactly :attr:`max`; any other rank is
        its bucket's geometric midpoint clamped to the observed
        ``[min, max]``, so quantization never reports a value outside
        the observed range.
        """
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        with self._lock:
            if not self._count:
                return 0.0
            target = max(1, math.ceil(fraction * self._count))
            if target == self._count:
                # The top bucket's midpoint can lie below its samples.
                return self._max
            cumulative = 0
            for bucket in sorted(self._counts):
                cumulative += self._counts[bucket]
                if cumulative >= target:
                    value = self._representative(bucket)
                    return min(max(value, self._min), self._max)
            return self._max  # pragma: no cover — unreachable

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def throughput(self, wall_seconds: float) -> float:
        """Completed operations per second over *wall_seconds*."""
        return self.count / wall_seconds if wall_seconds > 0 else 0.0

    def summary(self) -> dict:
        """The stable JSON shape every perf artifact embeds."""
        return {
            "count": self.count,
            "mean_ms": self.mean * 1000.0,
            "min_ms": self.min * 1000.0,
            "p50_ms": self.p50 * 1000.0,
            "p90_ms": self.p90 * 1000.0,
            "p99_ms": self.p99 * 1000.0,
            "max_ms": self.max * 1000.0,
        }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram({self.count} samples, "
            f"p50={self.p50 * 1000:.2f}ms, p99={self.p99 * 1000:.2f}ms)"
        )
