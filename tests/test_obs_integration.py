"""Cross-layer observability acceptance tests.

The contract under test (ISSUE/PR 6):

* a traced ``run_spec`` produces a JSONL file from which
  ``summarize_trace`` reports per-stage wall time, the ledger hit rate,
  and per-cell cached/computed counts *exactly* matching the
  :class:`RunReport`;
* turning tracing off changes nothing — bitwise-identical results and
  digests;
* :meth:`RunLedger.stats` backs the ≥90 %-cache-hit CI assertion;
* :meth:`TransformService.stats` derives ``rows_per_sec`` /
  ``mean_latency_s`` from its histograms;
* instrumentation left *off* is effectively free (overhead guard).
"""

import json
import os
import time

import pytest

from repro import PFR
from repro.core import fit_path
from repro.experiments import RunSpec, run_spec
from repro.graphs import pairwise_judgment_graph
from repro.obs import (
    MetricsRegistry,
    get_registry,
    read_trace,
    set_registry,
    set_sinks,
    sinks,
    span,
    summarize_trace,
    trace_enabled,
    tracing,
)
from repro.serving import ModelRegistry, TransformService
from repro.store import RunLedger

_SPEC = {
    "name": "obs-accept",
    "datasets": [{"name": "synthetic", "scale": 0.3}],
    "methods": ["original", "pfr"],
    "gammas": [0.0, 0.5],
    "seeds": [0, 1],
    "harness": {"n_components": 2},
}


@pytest.fixture(autouse=True)
def _clean_tracing():
    """No sink leaks across tests; global registry restored."""
    set_sinks(())
    previous = set_registry(MetricsRegistry())
    yield
    for sink in sinks():
        sink.close()
    set_sinks(())
    set_registry(previous)


class TestTracedRunMatchesReport:
    def test_cold_then_warm_summary_matches_reports(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        store = tmp_path / "ledger"

        cold_trace = tmp_path / "cold.jsonl"
        with tracing(cold_trace):
            cold = run_spec(spec, store=store)
        warm_trace = tmp_path / "warm.jsonl"
        with tracing(warm_trace):
            warm = run_spec(spec, store=store)

        for report, path in ((cold, cold_trace), (warm, warm_trace)):
            summary = summarize_trace(read_trace(path))
            # The acceptance: trace-derived cell counts are exactly the
            # report's counts.
            assert summary["cells"] == {
                "total": report.n_total,
                "cached": report.n_cached,
                "computed": report.n_computed,
            }
            assert summary["cells"] == {
                "total": report.telemetry["cells"]["total"],
                "cached": report.telemetry["cells"]["cached"],
                "computed": report.telemetry["cells"]["computed"],
            }
            assert report.telemetry["trace_enabled"] is True
            assert report.telemetry["wall_s"] > 0.0

        cold_summary = summarize_trace(read_trace(cold_trace))
        assert cold.n_computed == cold.n_total
        # Per-stage wall time for the fit pipeline is present and sane.
        for stage in ("spec.run", "spec.cell", "plan.graph",
                      "plan.laplacian", "plan.projection", "plan.solve"):
            assert stage in cold_summary["stages"], stage
            assert cold_summary["stages"][stage]["total_s"] >= 0.0
        assert cold_summary["stages"]["spec.cell"]["count"] == cold.n_total
        # spec.run dominates its children.
        assert (cold_summary["stages"]["spec.run"]["total_s"]
                >= cold_summary["stages"]["spec.cell"]["total_s"])

        # Ledger accounting from the trace agrees with the report's
        # telemetry delta (this test scopes the registry, so trace
        # snapshots == the run's own delta).
        assert cold_summary["ledger"]["hits"] >= 0
        warm_summary = summarize_trace(read_trace(warm_trace))
        assert warm.n_cached == warm.n_total
        assert warm.telemetry["ledger"]["hit_rate"] == 1.0
        # Warm run: no cell computed, so no spec.cell spans.
        assert "spec.cell" not in warm_summary["stages"]

    def test_parallel_run_worker_spans_and_metrics(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        trace = tmp_path / "par.jsonl"
        with tracing(trace):
            report = run_spec(spec, store=tmp_path / "ledger", workers=2)
        records = read_trace(trace)
        summary = summarize_trace(records)
        assert summary["cells"] == {
            "total": report.n_total,
            "cached": 0,
            "computed": report.n_total,
        }
        # Worker processes contributed spans and metrics records.
        assert summary["processes"] >= 2
        task_spans = [r for r in records
                      if r.get("type") == "span"
                      and r.get("name") == "parallel.task"]
        assert task_spans
        parent_pid = os.getpid()
        assert any(r["pid"] != parent_pid for r in task_spans)
        worker_metrics = [r for r in records
                          if r.get("type") == "metrics"
                          and r.get("pid") != parent_pid]
        assert worker_metrics
        # Workers put their computed cells; those puts only show through
        # their metrics records, which the summary folds in.
        assert summary["ledger"]["puts"] == report.n_computed

    def test_cell_spans_carry_digests(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        trace = tmp_path / "run.jsonl"
        with tracing(trace):
            report = run_spec(spec, store=tmp_path / "ledger")
        cell_spans = [r for r in read_trace(trace)
                      if r.get("type") == "span"
                      and r.get("name") == "spec.cell"]
        traced_digests = {r["attrs"]["digest"] for r in cell_spans}
        assert traced_digests == {cell["digest"] for cell in report.cells}


class TestTracingChangesNothing:
    def test_bitwise_identical_results_and_digests(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        plain = run_spec(spec, store=tmp_path / "a")
        with tracing(tmp_path / "t.jsonl"):
            traced = run_spec(spec, store=tmp_path / "b")

        # Digest equality is the strong claim: telemetry never reaches
        # task identity, so the cells dicts (digest included) match.
        assert plain.cells == traced.cells

        plain_json = plain.to_json()
        traced_json = traced.to_json()
        plain_json.pop("telemetry")
        traced_json.pop("telemetry")
        assert (json.dumps(plain_json, sort_keys=True)
                == json.dumps(traced_json, sort_keys=True))

        for key in plain.results:
            a, b = plain.results[key], traced.results[key]
            assert a.auc == b.auc
            assert a.consistency_wx == b.consistency_wx
            assert a.consistency_wf == b.consistency_wf
            assert a.rates.gap("positive_rate") == b.rates.gap("positive_rate")

    def test_untraced_run_reports_trace_disabled(self, tmp_path):
        report = run_spec(
            RunSpec.from_dict(_SPEC), store=tmp_path / "ledger"
        )
        assert report.telemetry["trace_enabled"] is False
        assert report.telemetry["cells"]["total"] == report.n_total


class TestLedgerStats:
    def test_counts_and_latencies(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        task = {"kind": "method_result", "task": 1}
        entry = ledger.put(task, {"out": 1})
        digest = entry.digest
        assert ledger.contains(digest)          # hit
        assert not ledger.contains("0" * 64)    # miss
        assert ledger.get(digest) is not None   # a read, not a lookup
        assert ledger.get_task(task) is not None  # hit
        stats = ledger.stats()
        assert stats["puts"] == 1
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["lookups"] == 3
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert stats["gets"] == 2
        assert stats["write_seconds"]["count"] == 1
        assert stats["read_seconds"]["count"] == 2

    def test_run_hit_rate_counts_cache_decisions_only(self, tmp_path):
        # A cold run decides every cell is missing and a warm one that
        # every cell is cached; the read-back of each cell is no decision.
        spec = RunSpec.from_dict(_SPEC)
        cold = run_spec(spec, store=tmp_path / "ledger")
        warm = run_spec(spec, store=tmp_path / "ledger")
        assert cold.n_cached == 0
        assert cold.telemetry["ledger"]["hit_rate"] == 0.0
        assert cold.telemetry["ledger"]["lookups"] == cold.n_total
        assert cold.telemetry["ledger"]["puts"] == cold.n_total
        assert warm.telemetry["ledger"]["hit_rate"] == 1.0
        assert warm.telemetry["ledger"]["lookups"] == warm.n_total

    def test_two_roots_are_independent_series(self, tmp_path):
        a = RunLedger(tmp_path / "a")
        b = RunLedger(tmp_path / "b")
        a.put({"kind": "method_result", "t": 1}, {"o": 1})
        assert a.stats()["puts"] == 1
        assert b.stats()["puts"] == 0

    def test_warm_rerun_delta_is_the_ci_assertion(self, tmp_path):
        # The CI smoke asserts ≥90% of the second run's lookups hit; the
        # measurement is a stats() delta around that run.
        spec = RunSpec.from_dict(_SPEC)
        ledger = RunLedger(tmp_path / "ledger")
        run_spec(spec, store=tmp_path / "ledger")
        before = ledger.stats()
        run_spec(spec, store=tmp_path / "ledger")
        after = ledger.stats()
        lookups = after["lookups"] - before["lookups"]
        hits = after["hits"] - before["hits"]
        assert lookups > 0
        assert hits / lookups >= 0.9


class TestServingStatsRegression:
    @pytest.fixture
    def service(self, rng, tmp_path):
        X = rng.normal(size=(60, 5))
        WF = pairwise_judgment_graph([(0, 1), (4, 9)], n=60)
        model = PFR(n_components=2, gamma=0.5, n_neighbors=4).fit(X, WF)
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("pfr", model)
        return TransformService(registry)

    def test_derived_rates_come_from_histograms(self, service, rng):
        for _ in range(3):
            service.transform("pfr", rng.normal(size=(8, 5)))
        stats = service.stats()
        entry = stats["models"]["pfr@1"]
        assert entry["requests"] == 3
        assert entry["rows"] == 24
        assert entry["seconds"] > 0.0
        # The satellite: throughput/latency derived once, from the
        # histogram, not hand-rolled counters.
        assert entry["rows_per_sec"] == pytest.approx(
            entry["rows"] / entry["seconds"]
        )
        assert entry["mean_latency_s"] == pytest.approx(
            entry["seconds"] / entry["requests"]
        )
        assert "rows_per_second" not in entry
        latency = entry["latency"]
        assert latency["count"] == 3
        assert latency["p50"] <= latency["p99"] <= latency["max"]
        totals = stats["totals"]
        assert totals["requests"] == 3
        assert totals["rows"] == 24
        assert totals["rows_per_sec"] == pytest.approx(
            totals["rows"] / totals["seconds"]
        )
        assert totals["mean_latency_s"] == pytest.approx(
            totals["seconds"] / totals["requests"]
        )

    def test_private_registry_by_default(self, service, rng):
        service.transform("pfr", rng.normal(size=(4, 5)))
        assert get_registry().total("serving.requests") == 0.0
        assert service.metrics.total("serving.requests") == 1.0

    def test_opt_in_global_registry(self, rng, tmp_path):
        X = rng.normal(size=(60, 5))
        WF = pairwise_judgment_graph([(0, 1), (4, 9)], n=60)
        model = PFR(n_components=2, gamma=0.5, n_neighbors=4).fit(X, WF)
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("pfr", model)
        service = TransformService(registry, metrics=get_registry())
        service.transform("pfr", rng.normal(size=(4, 5)))
        assert get_registry().total("serving.requests") == 1.0


class TestOverheadGuard:
    def test_disabled_span_is_cheap(self):
        # The hot-path cost with tracing off: one global load, a truth
        # test and a constant return. Budget: < 5 µs/call averaged over
        # 200k calls (two orders of magnitude above typical, so CI noise
        # cannot trip it).
        assert not trace_enabled()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            with span("guard.noop", gamma=0.5):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed / n < 5e-6, f"{elapsed / n * 1e9:.0f} ns per off-span"

    def test_fit_path_overhead_under_five_percent(self, rng):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip(
                "single-CPU runner: wall-clock comparison is scheduling "
                "noise, not instrumentation overhead (disabled-span cost "
                "is covered by test_disabled_span_is_cheap)"
            )
        X = rng.normal(size=(120, 6))
        WF = pairwise_judgment_graph([(0, 1), (5, 9), (20, 40)], n=120)
        gammas = (0.0, 0.5, 1.0)

        template = PFR(n_components=2, n_neighbors=4)

        def once() -> float:
            start = time.perf_counter()
            fit_path(X, WF, gammas=gammas, estimator=template)
            return time.perf_counter() - start

        once()  # warm caches/allocators out of the measurement
        t_off = min(once() for _ in range(5))
        with tracing(os.devnull, metrics=False):
            t_on = min(once() for _ in range(5))
        # Tracing *on* within 5% (+5ms floor for tiny absolute times) of
        # off bounds the off-mode hooks too, since off does strictly less.
        assert t_on <= t_off * 1.05 + 0.005, (t_on, t_off)
