"""``sweep``: a cold ``run_spec`` into a fresh ledger, then fully cached re-runs.

The cold run is the path that produces the paper's figures: every cell
fits its representation (``core.plan``), trains the classifier and
writes the ledger. The warm run never touches the numeric core; it is
``compile_cells`` plus ledger reads. Runs are serial: process fan-out on
a small shared box measures the scheduler.
"""

from __future__ import annotations

import json
import tempfile
import time

from repro.experiments import ExperimentHarness, RunSpec, WorkloadFactory, run_spec
from repro.obs import get_registry
from repro.store import encode_method_result

from probes import Clock, TimedLedger, peak_rss_mb, traced
from stats import counter_delta, median, span_stat, span_table

N_SETUPS = 3  # timed set-ups before the rounds, each of which sets up too
MIN_ROUNDS = 2
WARM_RUNS = 3


def make_spec(seed: int, smoke: bool) -> RunSpec:
    """The benchmark's scenario matrix; ``seed`` picks the two spec seeds."""
    if smoke:
        datasets = [{"name": "compas", "scale": 0.05}]
        methods, gammas = ["original", "pfr"], [0.0, 1.0]
    else:
        datasets = [
            {"name": "compas", "scale": 0.25},
            {"name": "crime", "scale": 1.0},
        ]
        methods, gammas = ["original", "pfr", "kpfr"], [0.0, 0.25, 0.5, 0.75, 1.0]
    return RunSpec.from_dict(
        {
            "name": "perfbench-sweep",
            "datasets": datasets,
            "methods": methods,
            "gammas": gammas,
            "seeds": [2 * seed, 2 * seed + 1],
        }
    )


def _setup(spec: RunSpec, work) -> TimedLedger:
    """Generate every (dataset, seed) slice once and open a fresh ledger."""
    for name, scale in spec.datasets:
        factory = WorkloadFactory(name, scale=scale)
        for seed in spec.seeds:
            factory(seed)
    return TimedLedger(tempfile.mkdtemp(prefix="ledger-", dir=work))


def _aggregates(report) -> str:
    return json.dumps(report.to_json()["aggregates"], sort_keys=True)


def _check_slice(spec: RunSpec, report, result) -> int:
    """One (dataset, seed) slice against a ledger-free harness, bitwise."""
    name, scale = spec.datasets[0]
    seed = spec.seeds[0]
    harness = ExperimentHarness(
        WorkloadFactory(name, scale=scale)(seed), seed=seed, **spec.harness
    )
    mismatched = []
    cells = 0
    for method in spec.methods:
        for gamma in spec.gammas:
            cells += 1
            fresh = encode_method_result(harness.run_method(method, gamma=gamma))
            stored = encode_method_result(report.results[(name, method, gamma, seed)])
            if json.dumps(fresh, sort_keys=True) != json.dumps(stored, sort_keys=True):
                mismatched.append(f"{method}/gamma={gamma:g}")
    result.check(
        f"slice {name}/seed={seed} equals a ledger-free harness bitwise",
        not mismatched,
        ", ".join(mismatched),
    )
    return cells


def run(ctx, result) -> None:
    spec = make_spec(ctx.seed, ctx.smoke)
    result.say(
        f"spec: {len(spec.datasets)} datasets x {len(spec.methods)} methods x "
        f"{len(spec.gammas)} gammas x seeds {list(spec.seeds)} = {spec.n_cells} cells"
    )
    if ctx.trace:
        _run_traced(ctx, spec, result)
        return

    setups = Clock()
    for _ in range(N_SETUPS):
        setups(_setup, spec, ctx.work)
    cold_clock, warm_clock = Clock(), Clock()
    colds, warms = [], []
    start = time.perf_counter()
    # Rounds of (fresh ledger, cold run, warm re-runs): a cold run is one
    # sample of the slow path, so a run takes at least two.
    while len(colds) < MIN_ROUNDS or time.perf_counter() - start < ctx.seconds:
        ledger = setups(_setup, spec, ctx.work)
        colds.append(cold_clock(run_spec, spec, store=ledger))
        warms += [warm_clock(run_spec, spec, store=ledger) for _ in range(WARM_RUNS)]
    result.attempted += spec.n_cells * (len(colds) + len(warms))
    result.check("every cold run computed every cell (cached ratio 0)",
                 all(c.n_cached == 0 for c in colds))
    result.check(
        "every warm run found every cell cached (cached ratio 1)",
        all(w.hit_rate == 1.0 for w in warms),
    )
    cold_aggs = _aggregates(colds[0])
    result.check(
        "cold and warm aggregates of every round equal bitwise",
        all(_aggregates(r) == cold_aggs for r in colds + warms),
    )
    result.attempted += _check_slice(spec, colds[0], result)

    result.metric("setup_s", median(setups.samples), "s", len(setups.samples),
                  "slice generation + fresh ledger")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
    # Best of the repetitions: noise on a shared host only adds time.
    result.metric("sweep_cold_s", min(cold_clock.samples), "s",
                  len(cold_clock.samples), "best of the run's cold runs")
    result.metric("sweep_warm_s", min(warm_clock.samples), "s",
                  len(warm_clock.samples), "best of the run's warm runs")
    result.metric("cold_cells_per_s", spec.n_cells / min(cold_clock.samples),
                  "1/s", len(cold_clock.samples))
    result.report("setup_s", "setup_s")
    result.report("peak_rss_mb", "peak_rss_mb")
    result.report("latency_ms", "sweep_cold_s", 1000.0, "ms")
    # The cached re-run (sweep_warm_s) lasts a tenth of a second and
    # moved 1.8x between runs of the same code as a shared host's speed
    # changed, so throughput_per_s is the cold run's cell rate; the warm path
    # stays visible here and in the per-layer split.
    result.report("throughput_per_s", "cold_cells_per_s")


def _run_traced(ctx, spec, result) -> None:
    ledger = _setup(spec, ctx.work)
    cold_clock = Clock()
    plain_cold = cold_clock(run_spec, spec, store=ledger)
    plain_warm = run_spec(spec, store=ledger)

    ledger = _setup(spec, ctx.work)
    registry = get_registry()
    before = registry.snapshot()
    start = time.perf_counter()
    cold, cold_records = traced(ctx.work / "sweep-cold.jsonl",
                                lambda: run_spec(spec, store=ledger))
    traced_cold_s = time.perf_counter() - start
    after = registry.snapshot()
    put_calls, _ = ledger.timing("put")
    ledger.reset_timings()
    warm, warm_records = traced(ctx.work / "sweep-warm.jsonl",
                                lambda: run_spec(spec, store=ledger))
    result.attempted += 4 * spec.n_cells

    for label, (c, w) in (("untraced", (plain_cold, plain_warm)),
                          ("traced", (cold, warm))):
        result.check(f"{label}: cold cached ratio 0", c.n_cached == 0)
        result.check(f"{label}: warm cached ratio 1", w.hit_rate == 1.0)
        result.check(f"{label}: warm aggregates equal cold bitwise",
                     _aggregates(w) == _aggregates(c))
    result.check("traced aggregates equal untraced bitwise",
                 _aggregates(cold) == _aggregates(plain_cold))
    result.attempted += _check_slice(spec, cold, result)

    hot = span_table(cold_records)
    cool = span_table(warm_records)
    hits = counter_delta(before, after, "plan.solve_cache.hits")
    misses = counter_delta(before, after, "plan.solve_cache.misses")
    cold_e2e = "sweep_cold_s (latency_ms, throughput_per_s)"
    warm_e2e = "sweep_warm_s"
    eig = hot.get("core.eig", {"calls": 0})
    knn_s = span_stat(hot, "graphs.knn") + span_stat(hot, "graphs.knn_cross")
    knn_calls = (hot.get("graphs.knn", {"calls": 0})["calls"]
                 + hot.get("graphs.knn_cross", {"calls": 0})["calls"])
    rows = [
        ("core.plan.projection_s", span_stat(hot, "plan.projection"), "s",
         hot.get("plan.projection", {"calls": 0})["calls"], cold_e2e),
        ("core.plan.solve_self_s", span_stat(hot, "plan.solve", "self_s"), "s",
         hot.get("plan.solve", {"calls": 0})["calls"], cold_e2e),
        ("core.eig_s", span_stat(hot, "core.eig"), "s", eig["calls"], cold_e2e),
        ("core.eig.calls", eig["calls"], "count", 1, cold_e2e),
        ("core.plan.laplacian_s", span_stat(hot, "plan.laplacian"), "s",
         hot.get("plan.laplacian", {"calls": 0})["calls"], cold_e2e),
        ("core.plan.graph_self_s", span_stat(hot, "plan.graph", "self_s"), "s",
         hot.get("plan.graph", {"calls": 0})["calls"], cold_e2e),
        ("graphs.knn_s", knn_s, "s", knn_calls, cold_e2e),
        ("core.plan.solve_cache_hit_ratio",
         hits / (hits + misses) if hits + misses else 0.0, "ratio",
         int(hits + misses), cold_e2e),
        ("experiments.harness.cell_self_s", span_stat(hot, "spec.cell", "self_s"),
         "s", hot.get("spec.cell", {"calls": 0})["calls"], cold_e2e),
        ("store.ledger.put_s", span_stat(hot, "bench.store.ledger.put"), "s",
         put_calls, cold_e2e),
        ("store.ledger.puts", put_calls, "count", 1, cold_e2e),
        ("experiments.spec.run_self_s", span_stat(cool, "spec.run", "self_s"),
         "s", 1, warm_e2e),
        ("store.ledger.get_s", span_stat(cool, "bench.store.ledger.get"), "s",
         ledger.timing("get")[0], warm_e2e),
        ("store.ledger.gets", ledger.timing("get")[0], "count", 1, warm_e2e),
        ("store.ledger.cached_ratio.cold", cold.hit_rate, "ratio",
         cold.n_total, "RunReport cells (must be 0)"),
        ("store.ledger.cached_ratio.warm", warm.hit_rate, "ratio",
         warm.n_total, "RunReport cells (must be 1)"),
        ("trace_overhead", traced_cold_s / cold_clock.samples[0], "ratio", 1,
         "traced over untraced cold run"),
    ]
    for name, value, unit, n, moves in rows:
        result.layer(name, value, unit, n, moves)
