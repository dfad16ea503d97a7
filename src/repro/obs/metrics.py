"""Metrics registry: counters, gauges and fixed-bucket histograms.

Complements the span tracer with cheap aggregates that don't need one
record per occurrence — per-level flop counters, segment-sum size
histograms, budget high-water-mark gauges. Every metric is thread-safe
(worker threads bump the same registry as the driving thread) and
the whole registry flattens to a plain ``dict`` for JSONL export.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Number = Union[int, float]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value plus its observed maximum (high-water mark)."""

    __slots__ = ("name", "value", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self.max: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value
            if value > self.max:
                self.max = value

    def add(self, delta: Number) -> None:
        """Apply a delta under the gauge's own lock.

        The safe form of ``g.set(g.value + delta)``: that read-modify-write
        races when several threads track a shared quantity (e.g. budget
        bytes in use across worker threads) — two concurrent adds would
        both read the same old value and one delta would vanish.
        """
        with self._lock:
            self.value += delta
            if self.value > self.max:
                self.max = self.value

    def update_max(self, value: Number) -> None:
        """Raise the high-water mark without moving the current value."""
        with self._lock:
            if value > self.max:
                self.max = value


#: Default bucket boundaries: powers of 4 cover sizes from "a cacheline"
#: to "a big intermediate" in 16 buckets.
DEFAULT_BUCKETS = tuple(4**k for k in range(1, 17))


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets like Prometheus).

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the implicit ``+Inf`` bucket. Bucket *counts* here are
    per-bucket (not cumulative); the exporter can derive either form.
    """

    __slots__ = ("name", "buckets", "counts", "overflow", "total", "count", "_lock")

    def __init__(self, name: str, buckets: Optional[Sequence[Number]] = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.buckets: tuple = bounds
        self.counts: List[int] = [0] * len(bounds)
        self.overflow = 0
        self.total: Number = 0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        with self._lock:
            slot = bisect_left(self.buckets, value)
            if slot >= len(self.buckets):
                self.overflow += 1
            else:
                self.counts[slot] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metrics, created on first touch.

    A name is owned by the first kind that claims it; re-requesting it as
    a different kind raises — silent cross-kind aliasing hides bugs.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, *args) -> object:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Optional[Sequence[Number]] = None
    ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, buckets)
                self._metrics[name] = metric
            elif not isinstance(metric, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested Histogram"
                )
            return metric

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Number]:
        """Flatten to ``{name: value}`` (histograms expand to sub-keys)."""
        out: Dict[str, Number] = {}
        with self._lock:
            items = list(self._metrics.items())
        for name, metric in items:
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = metric.value
                out[f"{name}.max"] = metric.max
            elif isinstance(metric, Histogram):
                out[f"{name}.count"] = metric.count
                out[f"{name}.sum"] = metric.total
                cumulative = 0
                for bound, bucket_count in zip(metric.buckets, metric.counts):
                    cumulative += bucket_count
                    out[f"{name}.le_{bound}"] = cumulative
                out[f"{name}.le_inf"] = cumulative + metric.overflow
        return out
