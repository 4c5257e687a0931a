"""Self-tests of the benchmark's own arithmetic, on synthetic inputs.

Run with ``python3 perfbench/run.py --self-test``; prints one line per
check and returns the number of failures.
"""

from __future__ import annotations

import math

import stats


def _close(a, b, tol=1e-9) -> bool:
    return a is not None and b is not None and math.isclose(a, b, abs_tol=tol)


def check_percentiles():
    yield "tail of 1000 samples is p99", stats.tail_percentile(1000) == 99.0
    yield "tail of 999 samples is p98", stats.tail_percentile(999) == 98.0
    yield "tail of 200 samples is p95", stats.tail_percentile(200) == 95.0
    yield "tail of 100 samples is p90", stats.tail_percentile(100) == 90.0
    yield "tail of 40 samples is p75", stats.tail_percentile(40) == 75.0
    yield "no tail for 39 samples", stats.tail_percentile(39) is None
    yield "tail capped at p99 for 10**5 samples", stats.tail_percentile(10**5) == 99.0
    yield "p99.9 when allowed", stats.tail_percentile(10**5, cap=99.9) == 99.9
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    yield "median of 1..5 is 3", stats.median(values) == 3.0
    yield "p25 of 1..5 is 2", stats.percentile(values, 25) == 2.0
    yield "p90 interpolates", _close(stats.percentile(values, 90), 4.6)
    summary = stats.summarize(range(1, 1001))
    yield "summary of 1..1000", (
        summary["n"] == 1000 and summary["tail_p"] == 99.0
        and _close(summary["tail"], 990.01) and _close(summary["p50"], 500.5)
    )


def _step(rate, verdict):
    return {"rate": rate, "verdict": verdict}


def check_max_rps():
    ok = {"failed": 0, "tail_ms": 4.0, "late_ms": 1.0, "pace": 1.0}
    yield "verdict pass", stats.step_verdict(ok, 10.0, 5.0) == "pass"
    yield "verdict fail on a failed request", (
        stats.step_verdict({**ok, "failed": 1}, 10.0, 5.0) == "fail")
    yield "verdict fail over the limit", (
        stats.step_verdict({**ok, "tail_ms": 11.0}, 10.0, 5.0) == "fail")
    yield "verdict fail behind schedule", (
        stats.step_verdict({**ok, "pace": 0.8}, 10.0, 5.0) == "fail")
    yield "verdict invalid when the generator was late", (
        stats.step_verdict({**ok, "late_ms": 6.0, "tail_ms": 50.0}, 10.0, 5.0)
        == "invalid")
    yield "highest pass below the first fail", stats.max_rps(
        [_step(1000, "pass"), _step(2000, "pass"), _step(3000, "fail")]) == 2000
    yield "a pass above a failure does not count", stats.max_rps(
        [_step(3000, "pass"), _step(1000, "pass"), _step(2000, "fail")]) == 1000
    yield "invalid steps are skipped", stats.max_rps(
        [_step(1000, "pass"), _step(2000, "invalid"), _step(3000, "pass"),
         _step(4000, "fail")]) == 3000
    yield "no pass reads 0", stats.max_rps([_step(1000, "fail")]) == 0.0


def _span(span_id, parent, name, start, duration):
    return {"type": "span", "span_id": span_id, "parent_id": parent,
            "name": name, "ts": start, "duration_s": duration}


def check_self_time():
    records = [
        _span("p", None, "parent", 0.0, 10.0),
        _span("a", "p", "child", 1.0, 2.0),      # [1, 3]
        _span("b", "p", "child", 2.0, 2.0),      # [2, 4] overlaps a
        _span("c", "p", "late", 8.0, 4.0),       # [8, 12] clipped to [8, 10]
        _span("g", "a", "grandchild", 1.5, 1.0),  # inside a only
        {"type": "metrics", "metrics": {}},
    ]
    table = stats.span_table(records)
    yield "parent self excludes the union of its children", _close(
        table["parent"]["self_s"], 10.0 - 3.0 - 2.0)
    yield "totals add durations", _close(table["child"]["total_s"], 4.0)
    yield "calls count spans", table["child"]["calls"] == 2
    yield "a child's self excludes its own child", _close(
        table["child"]["self_s"], 1.0 + 2.0)
    yield "a leaf's self is its duration", _close(table["grandchild"]["self_s"], 1.0)
    yield "missing span reads 0", stats.span_stat(table, "absent") == 0.0


_BEFORE = """# TYPE repro_http_requests_total counter
repro_http_requests_total{route="/transform",status="200"} 10
repro_http_request_seconds{route="/transform",quantile="0.5"} 0.001
repro_http_request_seconds_count{route="/transform"} 10
repro_http_request_seconds_sum{route="/transform"} 0.02
repro_http_request_seconds_count{route="/metrics"} 3
repro_http_request_seconds_sum{route="/metrics"} 0.5
repro_serving_request_seconds_count{model="a@1"} 10
repro_serving_request_seconds_sum{model="a@1"} 0.01
"""
_AFTER = """repro_http_requests_total{route="/transform",status="200"} 110
repro_http_request_seconds_count{route="/transform"} 110
repro_http_request_seconds_sum{route="/transform"} 0.32
repro_http_request_seconds_count{route="/metrics"} 4
repro_http_request_seconds_sum{route="/metrics"} 0.9
repro_serving_request_seconds_count{model="a@1"} 60
repro_serving_request_seconds_sum{model="a@1"} 0.06
repro_serving_request_seconds_count{model="a@2"} 50
repro_serving_request_seconds_sum{model="a@2"} 0.1
repro_odd{label="quote \\" inside"} 1
"""


def check_metrics_deltas():
    before = stats.parse_prometheus(_BEFORE)
    after = stats.parse_prometheus(_AFTER)
    yield "counter delta", stats.prom_delta(
        before, after, "repro_http_requests_total", route="/transform") == 100
    yield "summary mean over the interval, one route", _close(
        stats.mean_from_delta(before, after, "repro_http_request_seconds",
                              route="/transform"), 0.3 / 100)
    yield "a series born in the interval counts from zero", _close(
        stats.mean_from_delta(before, after, "repro_serving_request_seconds"),
        (0.05 + 0.1) / 100)
    yield "escaped label values parse", (
        ("repro_odd", (("label", 'quote \\" inside'),)) in after)
    yield "no observations reads 0", stats.mean_from_delta(
        after, after, "repro_http_request_seconds") == 0.0
    snap_a = {"counters": [{"name": "x", "labels": {"m": "1"}, "value": 2.0}]}
    snap_b = {"counters": [{"name": "x", "labels": {"m": "1"}, "value": 5.0},
                           {"name": "x", "labels": {"m": "2"}, "value": 1.0}]}
    yield "registry counter delta sums labels", stats.counter_delta(snap_a, snap_b, "x") == 4.0


def main() -> int:
    failures = 0
    for group in (check_percentiles, check_max_rps, check_self_time,
                  check_metrics_deltas):
        for name, ok in group():
            failures += not ok
            print(f"self-test {'ok  ' if ok else 'FAIL'} {group.__name__}: {name}")
    print(f"self-test {'passed' if not failures else f'{failures} FAILED'}")
    return failures
