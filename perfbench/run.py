"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --self-test     # the benchmark's own arithmetic
    python3 perfbench/run.py --smoke         # self-test + every workload, tiny

Workloads (see each ``wl_*.py``): ``sweep`` (cold and cached ``run_spec``),
``serve-rows`` and ``serve-batch`` (an open-loop HTTP load against
``python -m repro serve``) and ``refresh`` (the drift -> refresh ->
promote loop); ``BENCHMARK.json`` lists all but ``serve-rows``. ``--seed``
generates every input; the program receives only those inputs.

``--trace 0`` measures end-to-end metrics untraced. ``--trace 1`` also
runs the workload traced, through ``repro.obs`` spans and the timing
subclasses of ``probes.py``, and reports the per-layer split, the
end-to-end metric each layer metric should move, and the tracing
overhead. Human-readable lines come first, including an ``env`` stamp;
the last line is one JSON object ``{correct, attempted, failed,
metrics}`` carrying the metrics named in ``BENCHMARK.json``. The exit
code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "serve-rows", "serve-batch", "refresh")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path
    cpus: list = None  # the CPUs this process may use, as the run started
    root: Path = ROOT


def _import_program():
    """Put the checkout's ``src`` and this directory on the path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {src}; run from a checkout"
        )
    sys.path[:0] = [str(src), str(HERE)]
    import repro  # noqa: F401


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _blas() -> dict:
    import numpy as np

    info = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        pass
    import ctypes

    libraries = {
        line.split()[-1]
        for line in Path("/proc/self/maps").read_text().splitlines()
        if "openblas" in line
    }
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                info["threads"] = int(getattr(library, symbol)())
                return info
    return info


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """The stamp every result carries; compare results only when
    ``repro``, ``machine`` and ``cpus`` agree."""
    import numpy as np
    import scipy

    import repro

    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain")
    return {
        "repro": repro.__version__,
        "git_sha": sha or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "machine": f"{platform.machine()} {_cpu_model()}",
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "seed": seed,
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def json_metrics(result, trace: bool, declared: dict) -> dict:
    """The metrics of the last line: every end-to-end metric, or every
    per-layer one. A layer the workload never enters reads 0."""
    from result import Metric

    if not trace:
        missing = [m["name"] for m in declared["end_to_end"]
                   if m["name"] not in result.reported]
        if missing:
            raise RuntimeError(f"{result.workload} did not report {missing}")
        return {m["name"]: result.reported[m["name"]]
                for m in declared["end_to_end"]}
    out = {}
    for m in declared["per_layer"]:
        got = result.layers.get(m["name"])
        out[m["name"]] = got if got is not None else Metric(0.0, m["unit"], 0)
    return out


def run_workload(ctx: Context):
    from result import Result

    import wl_refresh
    import wl_serve
    import wl_sweep

    result = Result(ctx.workload)
    module = {"sweep": wl_sweep, "refresh": wl_refresh}.get(ctx.workload, wl_serve)
    module.run(ctx, result)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all that BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test, then every workload at toy size")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.smoke):
        parser.error("give --workload, --self-test or --smoke")

    _import_program()
    if args.self_test or args.smoke:
        import selftest

        failures = selftest.main()
        if failures or args.self_test:
            return 1 if failures else 0

    from result import final_line, render

    declared = _declared()
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    if args.smoke:
        names = WORKLOADS
    elif args.workload == "all":
        names = [w["name"] for w in declared["workloads"]]
    else:
        names = [args.workload]
    status = 0
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir))
        ctx = Context(
            workload=name, seed=args.seed,
            seconds=1.0 if args.smoke else args.seconds,
            trace=bool(args.trace), smoke=args.smoke, work=work,
            cpus=sorted(os.sched_getaffinity(0)),
        )
        try:
            print("env " + json.dumps(environment(args.seed)), flush=True)
            result = run_workload(ctx)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        metrics = json_metrics(result, ctx.trace, declared)
        for line in render(result, metrics):
            print(line)
        print(final_line(result, metrics), flush=True)
        if not result.correct:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
