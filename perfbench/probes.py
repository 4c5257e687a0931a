"""Measurement from outside the program: timing subclasses and trace capture.

The benchmark hands these subclasses to ``repro`` wherever the public API
accepts a ledger or a registry. Each timed call is accumulated on the
instance and, while a trace is being recorded, wrapped in a
``repro.obs`` span named ``bench.<layer>.<call>`` so it nests under the
program's own spans and self-time arithmetic sees it as a child.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

from repro.obs import read_trace, span, tracing
from repro.serving import ModelRegistry
from repro.store import RunLedger


class _Timings:
    """``{call: [count, seconds]}`` accumulated by the timed subclasses."""

    def _timed(self, call: str, fn, *args, **kwargs):
        with span(f"bench.{self._layer}.{call}"):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row = self.timings.setdefault(call, [0, 0.0])
                row[0] += 1
                row[1] += time.perf_counter() - start

    def timing(self, call: str) -> tuple[int, float]:
        count, seconds = self.timings.get(call, (0, 0.0))
        return int(count), float(seconds)

    def reset_timings(self) -> None:
        self.timings = {}


class TimedLedger(_Timings, RunLedger):
    """A ``RunLedger`` that times ``put`` and ``get``."""

    _layer = "store.ledger"

    def __init__(self, root):
        super().__init__(root)
        self.timings = {}

    def put(self, *args, **kwargs):
        return self._timed("put", super().put, *args, **kwargs)

    def get(self, *args, **kwargs):
        return self._timed("get", super().get, *args, **kwargs)


class TimedRegistry(_Timings, ModelRegistry):
    """A ``ModelRegistry`` that times ``resolve``, registration and ``promote``.

    ``register_from_ledger`` is timed as ``register`` (it calls
    ``register`` itself, which is therefore not timed again).
    """

    _layer = "serving.registry"

    def __init__(self, root):
        super().__init__(root)
        self.timings = {}

    def resolve(self, *args, **kwargs):
        return self._timed("resolve", super().resolve, *args, **kwargs)

    def register_from_ledger(self, *args, **kwargs):
        return self._timed(
            "register", super().register_from_ledger, *args, **kwargs
        )

    def promote(self, *args, **kwargs):
        return self._timed("promote", super().promote, *args, **kwargs)


def traced(path: Path, fn):
    """Run ``fn()`` with a JSONL trace at ``path``; returns (result, records)."""
    with tracing(path):
        result = fn()
    return result, read_trace(path)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has run, summed over its threads.

    Read from each thread's ``schedstat`` (nanoseconds on a CPU), which
    is finer than the clock ticks of ``/proc/<pid>/stat``.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:  # the thread ended while we looked
            pass
    return total / 1e9


class Clock:
    """Wall time of repeated calls, kept as a list of seconds."""

    def __init__(self):
        self.samples: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples.append(time.perf_counter() - start)
        return result
