"""Labeled metrics: counters, gauges and histograms.

The registry is the numbers-side companion of the span tracer: spans say
*when* and *how long*, metrics say *how much* (bytes shipped, messages
handled, staleness observed).  Every metric is a labeled series —
``registry.counter("upload_bytes", method="dgs")`` — and ``snapshot()``
produces plain dicts that serialise straight into the same JSONL stream
as spans (``type: "metric"`` records, see ``repro.obs.span``).
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_counts",
]

#: histogram bucket upper bounds in seconds (+Inf is implicit)
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


def _label_key(labels: "Mapping[str, Any]") -> "tuple[tuple[str, str], ...]":
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def quantile_from_counts(
    buckets: "tuple[float, ...] | list[float]",
    counts: "list[int]",
    q: float,
) -> float:
    """Estimate quantile ``q`` from per-bucket counts (last slot = +Inf).

    Linear interpolation within the winning bucket, the standard
    Prometheus ``histogram_quantile`` estimator.  Values landing in the
    +Inf bucket clamp to the highest finite bound; an empty histogram
    returns ``nan``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return float("nan")
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if i >= len(buckets):  # +Inf bucket: clamp to last finite bound
                return float(buckets[-1]) if buckets else float("nan")
            lower = float(buckets[i - 1]) if i > 0 else 0.0
            upper = float(buckets[i])
            fraction = (rank - cumulative) / count
            return lower + (upper - lower) * fraction
        cumulative += count
    return float(buckets[-1]) if buckets else float("nan")


class Counter:
    """Monotonically increasing scalar series."""

    kind = "counter"

    def __init__(self, name: str, labels: "Mapping[str, str] | None" = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for signed values")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> "dict[str, Any]":
        with self._lock:
            value = self._value
        return {"type": "metric", "kind": self.kind, "name": self.name, "labels": dict(self.labels), "value": value}


class Gauge:
    """Last-written scalar series (may go up or down)."""

    kind = "gauge"

    def __init__(self, name: str, labels: "Mapping[str, str] | None" = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> "dict[str, Any]":
        with self._lock:
            value = self._value
        return {"type": "metric", "kind": self.kind, "name": self.name, "labels": dict(self.labels), "value": value}


class Histogram:
    """Bucketed distribution (cumulative counts, Prometheus-style)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: "Mapping[str, str] | None" = None,
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, upper in enumerate(self.buckets):
                if value <= upper:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def snapshot(self) -> "dict[str, Any]":
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        return {
            "type": "metric",
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": counts,
            "sum": total,
            "count": n,
        }


class MetricsRegistry:
    """Get-or-create registry of labeled metric series (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "dict[tuple[str, str, tuple[tuple[str, str], ...]], Counter | Gauge | Histogram]" = {}

    def _get_or_create(self, kind: str, name: str, labels: "Mapping[str, Any]", factory) -> Any:
        key = (kind, name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", name, labels, lambda: Counter(name, {k: str(v) for k, v in labels.items()}))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create("gauge", name, labels, lambda: Gauge(name, {k: str(v) for k, v in labels.items()}))

    def histogram(self, name: str, buckets: "tuple[float, ...]" = DEFAULT_BUCKETS, **labels: Any) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels, lambda: Histogram(name, {k: str(v) for k, v in labels.items()}, buckets)
        )

    def snapshot(self) -> "list[dict[str, Any]]":
        """One ``type: "metric"`` record per registered series."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [m.snapshot() for m in metrics]
