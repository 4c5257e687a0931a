"""``refresh``: drifting batches through ``LifecycleController.ingest``.

A fitted ``LandmarkPlan`` (PFR, ``extension="nystrom"``, fairness graph
a k-NN graph on the side information) is handed to a controller with a
ledger, a registry and an in-distribution holdout. A seeded stream of
increasingly shifted batches goes through ``ingest()``, so the default
``RefreshPolicy`` fires repeatedly. This is the only workload that runs
``core.approx`` extend/refresh, ``lifecycle``, ledger puts carrying model
blobs and lineage, and registry register/promote.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.core import PFR, LandmarkPlan
from repro.datasets import simulate_blobs
from repro.graphs import knn_graph
from repro.lifecycle import LifecycleController, holdout_agreement
from repro.obs import MetricsRegistry

from probes import Clock, TimedLedger, TimedRegistry, peak_rss_mb, traced
from stats import counter_total, median, span_stat, span_table

NAME = "drifting"
N_FEATURES = 12
N_COMPONENTS = 8
GAMMA = 0.5
# The stream climbs in levels: every LEVEL_BATCHES batches the mean jumps
# by SHIFT, far enough that each jump drifts every row. Refreshes then
# fire at the same batches for every seed, so seeds change the data but
# not the amount of work.
SHIFT = 4.0
LEVEL_BATCHES = 4


@dataclass(frozen=True)
class Size:
    rows: int
    landmarks: int
    holdout: int
    batch: int
    batches: int


FULL = Size(rows=20_000, landmarks=1_000, holdout=2_000, batch=1_000, batches=16)
SMOKE = Size(rows=2_000, landmarks=128, holdout=200, batch=200, batches=12)


def _setup(seed: int, size: Size, work):
    """Inputs, the fitted plan and a controller over fresh stores."""
    data = simulate_blobs(size.rows + size.holdout, n_features=N_FEATURES, seed=seed)
    X, holdout = data.X[: size.rows], data.X[size.rows:]
    w_fair = knn_graph(
        data.side_information[: size.rows, None], n_neighbors=8, bandwidth=1.0
    )
    estimator = PFR(
        n_components=N_COMPONENTS, gamma=GAMMA, extension="nystrom",
        landmarks=size.landmarks, landmark_strategy="kmeans++", landmark_seed=0,
    )
    plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
    plan.fit(estimator)
    ledger = TimedLedger(tempfile.mkdtemp(prefix="ledger-", dir=work))
    registry = TimedRegistry(tempfile.mkdtemp(prefix="registry-", dir=work))
    controller = LifecycleController(
        plan, estimator, registry=registry, name=NAME, ledger=ledger,
        holdout=holdout, metrics=MetricsRegistry(),
    )
    controller.ensure_registered()
    ledger.reset_timings()
    registry.reset_timings()
    return controller, X, holdout


def _stream(seed: int, size: Size, X: np.ndarray):
    rng = np.random.default_rng(seed + 1)
    for i in range(size.batches):
        rows = X[rng.integers(0, X.shape[0], size=size.batch)]
        shift = SHIFT * (i // LEVEL_BATCHES)
        yield rows + shift + rng.normal(scale=0.25, size=rows.shape)


def _feed(controller, batches):
    """Ingest every batch; returns [(seconds, rows, refreshed)]."""
    timings = []
    for batch in batches:
        start = time.perf_counter()
        event = controller.ingest(batch)
        timings.append(
            (time.perf_counter() - start, event["rows"], event["refresh"] is not None)
        )
    return timings


def _outcome(controller, holdout) -> tuple:
    """What must repeat exactly for a seed: versions, rollbacks, agreement."""
    history = tuple(
        (e["version"], e["rolled_back"], e["n_landmarks"]) for e in controller.history
    )
    return history, holdout_agreement(controller.plan, holdout)


def _check_stores(controller, result, label: str) -> None:
    problems = controller.ledger.verify()["problems"]
    result.check(f"{label}: ledger verify clean", not problems,
                 str(problems[:2]) if problems else "")
    live = [e["version"] for e in controller.history if not e["rolled_back"]]
    expected = live[-1] if live else 1
    _, latest = controller.registry.resolve(f"{NAME}@latest")
    result.check(
        f"{label}: @latest is the last version not rolled back",
        latest == expected, f"latest={latest} expected={expected}",
    )


def run(ctx, result) -> None:
    size = SMOKE if ctx.smoke else FULL
    result.say(
        f"plan: n={size.rows} features={N_FEATURES + 1} landmarks={size.landmarks} "
        f"d={N_COMPONENTS}; stream {size.batches} x {size.batch} rows, "
        f"mean +{SHIFT} every {LEVEL_BATCHES} batches"
    )
    if ctx.trace:
        _run_traced(ctx, size, result)
        return

    setups = Clock()
    streams, outcomes = [], []
    start = time.perf_counter()
    while True:
        controller, X, holdout = setups(_setup, ctx.seed, size, ctx.work)
        streams.append(_feed(controller, _stream(ctx.seed, size, X)))
        outcomes.append(_outcome(controller, holdout))
        _check_stores(controller, result, f"stream {len(outcomes)}")
        if len(outcomes) >= 3 and time.perf_counter() - start >= ctx.seconds:
            break
    result.attempted += sum(len(t) for t in streams)
    result.check(
        "refreshes, rollbacks and holdout agreement repeat exactly",
        all(o == outcomes[0] for o in outcomes), f"{len(outcomes)} streams",
    )
    n_refreshes = sum(1 for t in streams for _, _, r in t if r)
    if not 0 < n_refreshes < result.attempted:
        raise RuntimeError(
            f"the refresh policy fired on {n_refreshes} of {result.attempted} "
            "ingests; the stream must mix refreshing and plain ingests"
        )
    # Per stream, then the best stream: noise on a shared host only adds time.
    refresh_s = [median([s for s, _, r in t if r]) for t in streams]
    rows_per_s = [
        sum(rows for _, rows, r in t if not r) / sum(s for s, _, r in t if not r)
        for t in streams
    ]
    history, agreement = outcomes[0]
    result.say(
        f"per stream: {len(history)} refreshes, "
        f"{sum(1 for h in history if h[1])} rollbacks; landmarks "
        f"{[h[2] for h in history]}"
    )
    result.metric("setup_s", median(setups.samples), "s", len(setups.samples),
                  "data, k-NN graph, landmark plan fit, stores, registration")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
    result.metric("refresh_p50_s", min(refresh_s), "s", n_refreshes,
                  f"best of {len(streams)} streams' medians")
    result.metric("ingest_rows_per_s", max(rows_per_s), "rows/s",
                  result.attempted - n_refreshes,
                  f"best of {len(streams)} streams")
    result.metric("holdout_agreement", agreement, "ratio", 1,
                  "final live plan; repeats exactly for a seed")
    result.report("setup_s", "setup_s")
    result.report("peak_rss_mb", "peak_rss_mb")
    result.report("latency_ms", "refresh_p50_s", 1000.0, "ms")
    result.report("throughput_per_s", "ingest_rows_per_s", unit="1/s")


def _plain_stream(ctx, size, result, label: str):
    """One untraced stream; returns (seconds, outcome)."""
    controller, X, holdout = _setup(ctx.seed, size, ctx.work)
    start = time.perf_counter()
    _feed(controller, _stream(ctx.seed, size, X))
    seconds = time.perf_counter() - start
    _check_stores(controller, result, label)
    return seconds, _outcome(controller, holdout)


def _run_traced(ctx, size, result) -> None:
    # The first stream only warms up; the traced stream sits between two
    # untraced ones, so the overhead is not an artefact of order.
    _plain_stream(ctx, size, result, "warm-up")
    before_s, plain_outcome = _plain_stream(ctx, size, result, "untraced")
    controller, X, holdout = _setup(ctx.seed, size, ctx.work)
    start = time.perf_counter()
    timings, records = traced(
        ctx.work / "refresh.jsonl",
        lambda: _feed(controller, _stream(ctx.seed, size, X)),
    )
    traced_s = time.perf_counter() - start
    _check_stores(controller, result, "traced")
    after_s, after_outcome = _plain_stream(ctx, size, result, "untraced again")
    plain_s = (before_s + after_s) / 2
    result.attempted += 4 * len(timings)
    result.check("traced outcome equals untraced exactly",
                 _outcome(controller, holdout) == plain_outcome == after_outcome)

    table = span_table(records)
    ledger, registry = controller.ledger, controller.registry
    counters = controller.metrics.snapshot()
    plain = "ingest_rows_per_s (throughput_per_s)"
    refresh = "refresh_p50_s (latency_ms)"

    def calls(name):
        return table.get(name, {"calls": 0})["calls"]

    rows = [
        ("core.approx.extend_s", span_stat(table, "plan.extend"), "s",
         calls("plan.extend"), plain),
        ("core.approx.refresh_s", span_stat(table, "plan.refresh"), "s",
         calls("plan.refresh"), refresh),
        ("core.plan.solve_s", span_stat(table, "plan.solve"), "s",
         calls("plan.solve"), refresh),
        ("store.ledger.put_s", span_stat(table, "bench.store.ledger.put"), "s",
         ledger.timing("put")[0], refresh),
        ("store.ledger.puts", ledger.timing("put")[0], "count", 1, refresh),
        ("serving.registry.register_s",
         span_stat(table, "bench.serving.registry.register"), "s",
         registry.timing("register")[0], refresh),
        ("serving.registry.promote_s",
         span_stat(table, "bench.serving.registry.promote"), "s",
         registry.timing("promote")[0], refresh),
        ("lifecycle.refresh_self_s",
         span_stat(table, "lifecycle.refresh", "self_s"), "s",
         calls("lifecycle.refresh"),
         refresh + "; holdout scoring, clone and unspanned fit work"),
        ("lifecycle.refreshes", counter_total(counters, "lifecycle.refreshes"),
         "count", 1, "repeats exactly for a seed"),
        ("lifecycle.rollbacks", counter_total(counters, "lifecycle.rollbacks"),
         "count", 1, "repeats exactly for a seed"),
        ("trace_overhead", traced_s / plain_s, "ratio", 1,
         "traced stream over the mean of the untraced ones around it"),
    ]
    for name, value, unit, n, moves in rows:
        result.layer(name, value, unit, n, moves)
