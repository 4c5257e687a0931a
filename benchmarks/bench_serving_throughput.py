"""Throughput benchmark for the serving subsystem (repro.serving).

Measures rows/sec through a :class:`~repro.serving.TransformService` on
three paths, for both the linear PFR and the KernelPFR:

* **cold**  — one-row-at-a-time loop, every row a cache miss (the naive
  online pattern the cache exists to beat);
* **batched** — one vectorized bulk call over the same rows;
* **warm**  — the same one-row loop again, every row now a cache hit.

The service stores a computed row on its second sighting, so the warm
rows get two unmeasured passes: the first records them, the second
computes and admits them, and every measured warm pass hits.

Writes machine-readable results to ``benchmarks/output/BENCH_serving.json``
(override with ``REPRO_BENCH_SERVING_JSON``) so later PRs have a perf
trajectory to beat, and asserts the PR's acceptance floors: batched ≥ 5×
the one-row loop (linear PFR), and cache-warm ≥ 10× cold on repeated
inputs (KernelPFR, whose per-row transform re-kernelizes against the
training set — the workload where caching genuinely pays).

Run directly (``python benchmarks/bench_serving_throughput.py``) or via
pytest (``pytest benchmarks/bench_serving_throughput.py``).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import PFR, __version__
from repro.core import KernelPFR
from repro.graphs import between_group_quantile_graph
from repro.serving import ModelRegistry, TransformService

OUTPUT_JSON = Path(
    os.environ.get(
        "REPRO_BENCH_SERVING_JSON",
        Path(__file__).parent / "output" / "BENCH_serving.json",
    )
)

N_TRAIN = 2500
N_QUERY = 300
N_FEATURES = 12
N_COMPONENTS = 4


N_REPEATS = 5


def _fitted_models(seed: int = 0):
    """Fit a linear PFR and a KernelPFR on the same synthetic workload."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N_TRAIN, N_FEATURES))
    s = rng.integers(0, 2, N_TRAIN)
    scores = X[:, 0] + rng.normal(scale=0.5, size=N_TRAIN)
    w_fair = between_group_quantile_graph(scores, s, n_quantiles=10)
    pfr = PFR(n_components=N_COMPONENTS, gamma=0.7).fit(X, w_fair)
    kpfr = KernelPFR(n_components=N_COMPONENTS, kernel="rbf").fit(X, w_fair)
    return {"pfr": pfr, "kernel_pfr": kpfr}, rng


def _throughput(fn, n_rows: int) -> float:
    """rows/sec of one call to ``fn`` (which processes ``n_rows`` rows)."""
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return n_rows / elapsed if elapsed > 0 else float("inf")


def _best(values) -> float:
    """Best-of-N throughput — the timeit-style statistic: contention and
    GC only ever slow a pass down, so the max is the least-noisy estimate
    of the path's capability."""
    return max(values)


def _bench_model(service: TransformService, spec: str, rng) -> dict:
    """Cold-loop, batched and warm-loop rows/sec for one registered model.

    The model stays warm in memory throughout (deserialization is not what
    is being measured); cold measurements instead use freshly generated,
    never-before-seen rows so every one is a true cache miss. Each path is
    measured ``N_REPEATS`` times and the best pass reported.
    """
    def fresh_rows():
        return rng.normal(size=(N_QUERY, N_FEATURES))

    def one_row_loop(X):
        for row in X:
            service.transform_one(spec, row)

    # Warm the model + code paths outside any measurement.
    service.transform(spec, fresh_rows())

    cold = _best(
        _throughput(lambda X=fresh_rows(): one_row_loop(X), N_QUERY)
        for _ in range(N_REPEATS)
    )
    batched = _best(
        _throughput(lambda X=fresh_rows(): service.transform(spec, X), N_QUERY)
        for _ in range(N_REPEATS)
    )
    # Warm: the first pass records the rows, the second admits them; the
    # measured passes repeat the per-row loop over cached rows.
    warm_rows = fresh_rows()
    one_row_loop(warm_rows)
    one_row_loop(warm_rows)
    warm = _best(
        _throughput(lambda: one_row_loop(warm_rows), N_QUERY)
        for _ in range(N_REPEATS)
    )

    cache_info = service.stats()["models"][spec]["cache"]
    return {
        "rows": N_QUERY,
        "cold_rows_per_sec": cold,
        "batched_rows_per_sec": batched,
        "warm_rows_per_sec": warm,
        "speedup_batched_vs_cold": batched / cold,
        "speedup_warm_vs_cold": warm / cold,
        "cache_hit_rate": cache_info["hit_rate"],
    }


def run_benchmark(registry_root) -> dict:
    """Register both models and measure all three serving paths."""
    models, rng = _fitted_models()
    registry = ModelRegistry(registry_root)
    specs = {}
    for name, model in models.items():
        record = registry.register(name, model)
        specs[name] = record.spec  # pinned name@version — production pattern

    service = TransformService(registry, cache_size=100_000)
    results = {
        name: _bench_model(service, spec, rng)
        for name, spec in specs.items()
    }
    return {
        "benchmark": "serving_throughput",
        "library_version": __version__,
        "timestamp": time.time(),
        "config": {
            "n_train": N_TRAIN,
            "n_query": N_QUERY,
            "n_features": N_FEATURES,
            "n_components": N_COMPONENTS,
        },
        "results": results,
    }


def write_results(payload: dict) -> Path:
    OUTPUT_JSON.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return OUTPUT_JSON


def test_serving_throughput(tmp_path):
    payload = run_benchmark(tmp_path / "registry")
    path = write_results(payload)
    assert path.is_file()

    pfr = payload["results"]["pfr"]
    kpfr = payload["results"]["kernel_pfr"]
    # Acceptance floors (real ratios are far higher; wide margins keep the
    # assertion robust on noisy CI machines).
    assert pfr["speedup_batched_vs_cold"] >= 5.0
    assert kpfr["speedup_warm_vs_cold"] >= 10.0
    # Sanity: the warm loops were actually served from cache. Only the N
    # measured warm passes hit, so the expected rate is 1500 hits / 5400
    # lookups ≈ 0.28.
    assert kpfr["cache_hit_rate"] > 0.15
    assert pfr["cache_hit_rate"] > 0.15


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        payload = run_benchmark(Path(root) / "registry")
    path = write_results(payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}", file=sys.stderr)
    pfr = payload["results"]["pfr"]
    kpfr = payload["results"]["kernel_pfr"]
    ok = (
        pfr["speedup_batched_vs_cold"] >= 5.0
        and kpfr["speedup_warm_vs_cold"] >= 10.0
    )
    print(
        f"batched vs cold (PFR):   {pfr['speedup_batched_vs_cold']:8.1f}x\n"
        f"warm vs cold (KernelPFR):{kpfr['speedup_warm_vs_cold']:8.1f}x\n"
        f"{'PASS' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
