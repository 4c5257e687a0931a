"""Tests for repro.obs.metrics — counters, gauges, log-bucket histograms.

Includes the concurrency acceptance: N threads × M increments land on the
exact total, for counters and for histogram observation counts alike.
"""

import json
import math
import random
import threading

import pytest

from repro.obs.metrics import (
    _BOUNDS,
    _bucket_index,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestBucketIndex:
    def test_invariant_holds_for_every_bound(self):
        # Exactly-on-a-bound values land in the bucket whose upper bound
        # they equal: _BOUNDS[i-1] < v <= _BOUNDS[i]. The very last bound
        # is the overflow threshold and lands in the catch-all bucket.
        for i, bound in enumerate(_BOUNDS[:-1]):
            index = _bucket_index(bound)
            assert bound <= _BOUNDS[index]
            if index > 0:
                assert bound > _BOUNDS[index - 1]
        assert _bucket_index(_BOUNDS[-1]) == len(_BOUNDS)

    def test_interior_values(self):
        for value in (1.5e-7, 3.7e-4, 0.0123, 1.0, 42.0, 999.0):
            index = _bucket_index(value)
            assert value <= _BOUNDS[index]
            if index > 0:
                assert value > _BOUNDS[index - 1]

    def test_edges_clamp(self):
        assert _bucket_index(0.0) == 0
        assert _bucket_index(1e-30) == 0
        assert _bucket_index(1e3) == len(_BOUNDS)
        assert _bucket_index(1e9) == len(_BOUNDS)


class TestHistogram:
    def test_empty_summary_is_zeros(self):
        summary = Histogram().summary()
        assert summary == {
            "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_single_value_reports_itself_at_every_quantile(self):
        hist = Histogram()
        hist.observe(0.037)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.037)

    def test_exact_moments(self):
        hist = Histogram()
        values = [0.001, 0.002, 0.003, 0.004, 0.1]
        for value in values:
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(sum(values), rel=1e-12)
        assert hist.min == 0.001
        assert hist.max == 0.1

    def test_quantiles_within_bucket_resolution(self):
        # 16 buckets/decade → adjacent bounds differ by 10^(1/16) ≈ 15%;
        # the log-interpolated quantile must land within one bucket width.
        hist = Histogram()
        for i in range(1000):
            hist.observe(0.001 + 0.001 * i / 1000)  # uniform on [1ms, 2ms)
        tolerance = 10.0 ** (1.0 / 16.0)
        p50 = hist.quantile(0.5)
        assert 0.0015 / tolerance <= p50 <= 0.0015 * tolerance
        assert hist.quantile(0.99) <= hist.max
        assert hist.quantile(0.01) >= hist.min

    def test_monotone_quantiles(self):
        hist = Histogram()
        for value in (1e-5, 3e-4, 2e-3, 0.4, 7.0):
            hist.observe(value)
        qs = [hist.quantile(q) for q in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_kahan_sum_many_tiny_values(self):
        hist = Histogram()
        for _ in range(1_000_000):
            hist.observe(1e-7)
        assert hist.sum == pytest.approx(0.1, rel=1e-9)
        assert hist.count == 1_000_000

    def test_negative_and_nan_clamp_to_zero(self):
        hist = Histogram()
        hist.observe(-1.0)
        hist.observe(math.nan)
        assert hist.count == 2
        assert hist.min == 0.0
        assert hist.max == 0.0
        assert hist.sum == 0.0


class TestMetricsRegistry:
    def test_counter_basics(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 2.5)
        assert reg.counter_value("x") == 3.5
        assert reg.counter_value("never") == 0.0

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("hits", 1.0, root="/a")
        reg.inc("hits", 2.0, root="/b")
        assert reg.counter_value("hits", root="/a") == 1.0
        assert reg.counter_value("hits", root="/b") == 2.0
        assert reg.counter_value("hits") == 0.0  # unlabeled is its own series
        assert reg.total("hits") == 3.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x", 1.0, a="1", b="2")
        assert reg.counter_value("x", b="2", a="1") == 1.0

    def test_gauges(self):
        reg = MetricsRegistry()
        assert reg.gauge_value("depth") is None
        reg.set_gauge("depth", 3)
        reg.set_gauge("depth", 7)
        assert reg.gauge_value("depth") == 7.0

    def test_histograms(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1)
        reg.observe("lat", 0.3)
        summary = reg.histogram_summary("lat")
        assert summary["count"] == 2
        assert summary["sum"] == pytest.approx(0.4)
        assert reg.histogram_summary("never")["count"] == 0

    def test_batched_observe_matches_per_value_observe(self):
        rnd = random.Random(7)
        values = [10 ** rnd.uniform(-9, 4) for _ in range(2000)]
        values += [math.nan, -1.0, -1e-12, 0.0, 1e9] + list(_BOUNDS)
        rnd.shuffle(values)
        one, batched = MetricsRegistry(), MetricsRegistry()
        for chunk in (values[:7], values[7:]):  # a batch onto prior state
            for value in chunk:
                one.observe("lat", value, model="m")
            batched.observe_many("lat", chunk, model="m")

        def state(reg):
            ((_, hist),) = reg._histograms.items()
            return (hist.counts, hist.count, hist._sum, hist._comp,
                    hist.min, hist.max)

        assert state(batched) == state(one)
        assert batched.snapshot() == one.snapshot()
        summary = batched.histogram_summary("lat", model="m")
        assert summary["min"] == 0.0  # NaN and negatives clamp to zero
        assert summary["count"] == len(values)

    def test_snapshot_is_sorted_json_and_deterministic(self):
        reg = MetricsRegistry()
        reg.inc("b", 1.0, z="2", a="1")
        reg.inc("a")
        reg.set_gauge("g", 4)
        reg.observe("h", 0.25)
        snap = reg.snapshot()
        # JSON-safe and byte-stable across identical states.
        assert json.dumps(snap, sort_keys=True)
        names = [entry["name"] for entry in snap["counters"]]
        assert names == sorted(names)
        twin = MetricsRegistry()
        twin.set_gauge("g", 4)
        twin.inc("a")
        twin.observe("h", 0.25)
        twin.inc("b", 1.0, a="1", z="2")
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            twin.snapshot(), sort_keys=True
        )

    def test_label_named_value_does_not_collide(self):
        # name/value are positional-only, so a label literally called
        # "value" stays a label.
        reg = MetricsRegistry()
        reg.inc("x", 1.0, value="label")
        assert reg.counter_value("x", value="label") == 1.0


class TestConcurrency:
    def test_threads_times_increments_exact_total(self):
        reg = MetricsRegistry()
        n_threads, m_increments = 8, 2000

        def worker():
            for _ in range(m_increments):
                reg.inc("hits")
                reg.inc("hits", 1.0, shard="a")
                reg.observe("lat", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == n_threads * m_increments
        assert reg.counter_value("hits", shard="a") == n_threads * m_increments
        assert reg.total("hits") == 2 * n_threads * m_increments
        summary = reg.histogram_summary("lat")
        assert summary["count"] == n_threads * m_increments
        assert summary["sum"] == pytest.approx(
            n_threads * m_increments * 0.001, rel=1e-9
        )


class TestGlobalRegistry:
    def test_default_registry_is_stable(self):
        assert get_registry() is get_registry()

    def test_set_registry_swaps_and_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
