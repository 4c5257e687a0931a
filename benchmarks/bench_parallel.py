"""Parallel-executor benchmark: serial vs process fan-out on a real sweep.

The workload is the repository's heaviest honest experiment shape: a
cross-seed repeated γ-sweep (``repeat_gamma_sweep``) on the COMPAS-scale
simulation — every seed draws its own dataset, splits, builds both graphs,
stages a :class:`~repro.core.SpectralFitPlan`, and sweeps γ. Seeds are
independent, so the :class:`~repro.experiments.parallel.Executor` fans
them out across worker processes.

Two things are asserted:

* **Parity** — the parallel aggregates are *bitwise identical* to the
  serial ones (exact float equality on every mean/std). Parallelism may
  change wall-clock only, never numbers.
* **Speedup** — at 4 workers the sweep must beat serial by the floor
  (default ≥ 2×). The floor is scaled down to ``0.8 × cpus`` when fewer
  than 4 CPUs are available — no machine can honestly exceed its core
  count — and both the requested and effective floors are recorded in the
  output so a smoke run on a small box can't masquerade as the full
  measurement.

Writes machine-readable results to ``benchmarks/output/BENCH_parallel.json``
(override with ``REPRO_BENCH_PARALLEL_JSON``). Problem sizes scale with
``REPRO_BENCH_SCALE``; the speedup floor with
``REPRO_BENCH_PARALLEL_SPEEDUP_FLOOR``.

Run directly (``python benchmarks/bench_parallel.py``) or via pytest
(``pytest benchmarks/bench_parallel.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro import __version__
from repro.experiments import (
    Executor,
    WorkloadFactory,
    available_workers,
    repeat_gamma_sweep,
    spawn_seeds,
)

OUTPUT_JSON = Path(
    os.environ.get(
        "REPRO_BENCH_PARALLEL_JSON",
        Path(__file__).parent / "output" / "BENCH_parallel.json",
    )
)

_SCALE = max(0.02, min(1.0, float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))))

# COMPAS at half size by default (matching the figure benchmarks' default
# regime) — heavy enough that per-seed work dwarfs pool startup. 8 seeds
# divide evenly into both worker counts, so neither fan-out ends on a
# half-idle wave.
DATASET_SCALE = 0.5 * _SCALE
N_SEEDS = 8
GAMMAS = (0.0, 0.5, 1.0)
WORKER_COUNTS = (2, 4)

# The PR's acceptance floor at 4 workers on ≥4-core hardware. A machine
# cannot honestly beat its core count, so the effective floor is capped at
# 0.8 × available CPUs (the 0.8 budgets fork + result-pickling overhead).
# On a single-CPU box a speedup measurement is meaningless — the check is
# *skipped*, recorded as such in the JSON, and only the parity assertion
# remains; it is not fudged into a trivially-passable number.
SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_BENCH_PARALLEL_SPEEDUP_FLOOR", "2.0")
)


def _effective_floor(cpus: int) -> float | None:
    if cpus < 2:
        return None
    return min(SPEEDUP_FLOOR, 0.8 * min(cpus, max(WORKER_COUNTS)))


def _run_sweep(workers):
    factory = WorkloadFactory("compas", scale=DATASET_SCALE)
    return repeat_gamma_sweep(
        factory,
        GAMMAS,
        method="pfr",
        seeds=spawn_seeds(0, N_SEEDS),
        harness_kwargs={"n_components": 3},
        workers=workers,
    )


def run_benchmark() -> dict:
    """Time the repeated sweep serially and at each worker count."""
    cpus = available_workers()

    start = time.perf_counter()
    serial = _run_sweep(None)
    serial_seconds = time.perf_counter() - start

    runs = {}
    for count in WORKER_COUNTS:
        executor = Executor(workers=count)
        start = time.perf_counter()
        fanned = _run_sweep(executor)
        seconds = time.perf_counter() - start
        runs[str(count)] = {
            "seconds": seconds,
            "speedup": serial_seconds / seconds if seconds > 0 else float("inf"),
            # AggregateResult is a frozen dataclass: == is exact float
            # equality on every mean/std of every γ point.
            "bitwise_identical": fanned == serial,
        }

    return {
        "benchmark": "parallel",
        "library_version": __version__,
        "timestamp": time.time(),
        "config": {
            "dataset": "compas",
            "dataset_scale": DATASET_SCALE,
            "n_seeds": N_SEEDS,
            "gammas": list(GAMMAS),
            "scale": _SCALE,
            "available_cpus": cpus,
            "speedup_floor": SPEEDUP_FLOOR,
            "effective_speedup_floor": _effective_floor(cpus),
        },
        "results": {
            "serial_seconds": serial_seconds,
            "workers": runs,
        },
    }


def write_results(payload: dict) -> Path:
    OUTPUT_JSON.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return OUTPUT_JSON


def _check(payload: dict) -> list:
    """The PR's acceptance floors; returns a list of failure strings."""
    failures = []
    runs = payload["results"]["workers"]
    for count, run in runs.items():
        if not run["bitwise_identical"]:
            failures.append(
                f"{count} workers: results differ from serial — parallelism "
                "must never change numbers"
            )
    floor = payload["config"]["effective_speedup_floor"]
    top = str(max(WORKER_COUNTS))
    if floor is not None and runs[top]["speedup"] < floor:
        failures.append(
            f"{top} workers: speedup {runs[top]['speedup']:.2f}x < "
            f"{floor:.2f}x (requested {payload['config']['speedup_floor']}x "
            f"on {payload['config']['available_cpus']} CPUs)"
        )
    return failures


def test_parallel_sweep_speedup_and_parity():
    payload = run_benchmark()
    path = write_results(payload)
    assert path.is_file()
    failures = _check(payload)
    assert not failures, "; ".join(failures)


def main() -> int:
    payload = run_benchmark()
    path = write_results(payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}", file=sys.stderr)
    results = payload["results"]
    print(
        f"serial       {results['serial_seconds']:7.2f}s", file=sys.stderr
    )
    for count, run in results["workers"].items():
        print(
            f"{count} workers    {run['seconds']:7.2f}s  "
            f"speedup {run['speedup']:5.2f}x  "
            f"bitwise_identical={run['bitwise_identical']}",
            file=sys.stderr,
        )
    if payload["config"]["effective_speedup_floor"] is None:
        print(
            "speedup check skipped: single CPU available (parity still "
            "enforced)",
            file=sys.stderr,
        )
    failures = _check(payload)
    print("PASS" if not failures else "FAIL: " + "; ".join(failures),
          file=sys.stderr)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
