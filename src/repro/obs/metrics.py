"""Thread-safe metrics: counters, gauges, and streaming histograms.

One :class:`MetricsRegistry` holds every metric of a process (or of one
component — :class:`~repro.serving.TransformService` owns a private one so
two services never mix their latency distributions). Metrics are keyed by
``(name, sorted label items)``, so ``inc("ledger.hits", root="/a")`` and
``inc("ledger.hits", root="/b")`` are independent series that
:meth:`MetricsRegistry.total` can still sum.

Histograms use **fixed log-spaced buckets** (16 per decade from 100 ns to
1000 s), so their quantile estimates are a pure function of the observed
values — deterministic across runs, machines and thread interleavings,
unlike reservoir sampling. p50/p90/p99 are read off the cumulative bucket
counts with log-linear interpolation inside the crossing bucket; the
exact ``count``/``sum``/``min``/``max`` are tracked alongside (the sum
Kahan-compensated, so a million tiny latencies don't drift the way the
old ``seconds += dt`` serving counter did).

Everything here is stdlib-only and cheap: one lock acquisition plus a
dict lookup per operation. Telemetry must never feed digests or results —
registries deliberately have no ``__hash__`` hook into the store layer.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

# 16 buckets per decade spanning 1e-7 s .. 1e3 s: fine enough that the
# log-interpolated p99 of a unimodal latency distribution lands within
# ~15% of the true value, coarse enough that a histogram is 161 ints.
_BUCKETS_PER_DECADE = 16
_LOW_EXP = -7
_HIGH_EXP = 3
_N_BUCKETS = (_HIGH_EXP - _LOW_EXP) * _BUCKETS_PER_DECADE

#: Upper bound of bucket ``i`` (the last bucket is an overflow catch-all).
_BOUNDS = tuple(
    10.0 ** (_LOW_EXP + (i + 1) / _BUCKETS_PER_DECADE)
    for i in range(_N_BUCKETS)
)


def _bucket_index(value: float) -> int:
    """Deterministic bucket for ``value`` (clamped to the edge buckets).

    The first bucket whose bound is ``>= value``, i.e. the unique index
    with ``_BOUNDS[index-1] < value <= _BOUNDS[index]``; values at or
    past the last bound land in the overflow bucket.
    """
    if value >= _BOUNDS[-1]:
        return _N_BUCKETS  # overflow bucket
    return bisect_left(_BOUNDS, value)


class Histogram:
    """Streaming log-bucket histogram of non-negative observations.

    Not thread-safe on its own — the owning :class:`MetricsRegistry`
    serializes access under its lock.
    """

    __slots__ = ("counts", "count", "_sum", "_comp", "min", "max")

    def __init__(self):
        self.counts = [0] * (_N_BUCKETS + 1)
        self.count = 0
        self._sum = 0.0
        self._comp = 0.0  # Kahan compensation term
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values) -> None:
        """Observe each value in order; same state as one :meth:`observe` each."""
        counts = self.counts
        total, comp = self._sum, self._comp
        low, high = self.min, self.max
        n = 0
        try:
            for value in values:
                value = float(value)
                if value < 0.0 or value != value:  # negative or NaN: clamp to zero
                    value = 0.0
                counts[_bucket_index(value)] += 1
                n += 1
                # Kahan summation: exact-ish total even for many tiny latencies.
                y = value - comp
                t = total + y
                comp = (t - total) - y
                total = t
                if value < low:
                    low = value
                if value > high:
                    high = value
        finally:
            # A value that fails float() leaves the ones before it recorded.
            self.count += n
            self._sum, self._comp = total, comp
            self.min, self.max = low, high

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate from the bucket counts.

        Log-linear interpolation inside the bucket where the cumulative
        count crosses ``q * count``; exact ``min``/``max`` are used for
        q=0/q=1 and to clip the estimate, so a single-value histogram
        reports that value for every quantile.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lower = _BOUNDS[index - 1] if index > 0 else _BOUNDS[0] / 10.0
                upper = _BOUNDS[index] if index < _N_BUCKETS else self.max
                if upper <= lower:
                    estimate = upper
                else:
                    fraction = (target - previous) / bucket_count
                    estimate = lower * (upper / lower) ** fraction
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    def summary(self) -> dict:
        """JSON-safe summary: count, sum, mean, min/max, p50/p90/p99."""
        count = self.count
        return {
            "count": count,
            "sum": self._sum,
            "mean": self._sum / count if count else 0.0,
            "min": self.min if count else 0.0,
            "max": self.max if count else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


def _key(name: str, labels: dict) -> tuple:
    if len(labels) == 1:
        # The common single-label series (e.g. per-model serving counters,
        # three per request) needs no sort.
        ((label, value),) = labels.items()
        return (str(name), ((str(label), str(value)),))
    return (str(name), tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class MetricsRegistry:
    """Thread-safe home for counters, gauges and histograms.

    Every operation takes the metric ``name`` plus free-form ``labels``;
    distinct label sets are distinct series. All methods are safe to call
    from many threads — the concurrency suite holds N threads × M
    increments to exact totals.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # ------------------------------------------------------------- writes
    def inc(self, name: str, value: float = 1.0, /, **labels) -> None:
        """Add ``value`` to the counter ``name{labels}``."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, /, **labels) -> None:
        """Set the gauge ``name{labels}`` to ``value``."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, /, **labels) -> None:
        """Record one observation into the histogram ``name{labels}``."""
        key = _key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe_many((value,))

    def observe_many(self, name: str, values, /, **labels) -> None:
        """Record a batch into the histogram ``name{labels}`` under one lock.

        The histogram ends in the state one :meth:`observe` per value, in
        order, would leave.
        """
        key = _key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe_many(values)

    # -------------------------------------------------------------- reads
    def counter_value(self, name: str, /, **labels) -> float:
        """Current value of one counter series (0.0 if never incremented)."""
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, /, **labels) -> float | None:
        """Current value of one gauge series (None if never set)."""
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram_summary(self, name: str, /, **labels) -> dict:
        """Summary dict of one histogram series (zeros if never observed)."""
        with self._lock:
            histogram = self._histograms.get(_key(name, labels))
            return histogram.summary() if histogram else Histogram().summary()

    def total(self, name: str) -> float:
        """Sum of a counter across *all* of its label sets."""
        name = str(name)
        with self._lock:
            return sum(
                value for (metric, _labels), value in self._counters.items()
                if metric == name
            )

    def snapshot(self) -> dict:
        """JSON-safe snapshot of every series.

        ``{"counters": [{name, labels, value}], "gauges": [...],
        "histograms": [{name, labels, **summary}]}`` — label items sorted,
        series sorted by (name, labels), so two snapshots of identical
        state serialize identically.
        """
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = [
                {"name": name, "labels": dict(labels), **hist.summary()}
                for (name, labels), hist in sorted(self._histograms.items())
            ]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: Process-global default registry: the library's built-in instrumentation
#: (fit plan, run ledger, executor) records here unless told otherwise.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
