"""Deterministic parallel execution for the experiments layer.

The paper's experiments (§4) are embarrassingly parallel: every γ-sweep
point, every grid-search fold, every cross-seed repetition is an
independent fit. This module provides the one execution primitive they all
share — :class:`Executor` — whose one knob is its worker count: a fan-out
that resolves to one worker (``workers=1``, or a single task) runs as a
plain in-process loop, the reference semantics; any wider one goes through
a :class:`concurrent.futures.ProcessPoolExecutor` with per-worker state
shipped once through the pool initializer.

**Parallelism changes wall-clock only, never numbers.** Every task is a
pure function ``fn(state, task)`` of the shipped state and its own task
descriptor; results are collected in task order regardless of completion
order, and no task may depend on another task's side effects. The parity
suite (``tests/test_experiments_parallel.py``) holds the loop and the
pool to bitwise-identical results.

Two design points make that guarantee cheap to keep:

* **Per-task seeds are derived, not drawn.** :func:`spawn_seeds` maps a
  root seed to *n* child seeds through ``np.random.SeedSequence.spawn`` —
  a deterministic function of ``(root, index)`` alone, so the same task
  always sees the same seed whether it runs first in the parent or last
  in the fourth worker.
* **Caches are rebuilt, not shipped.** :class:`ExperimentHarness` drops
  its staged-fit plan caches when pickled (they are pure derived state and
  can hold n×n kernel matrices); each worker rebuilds the
  :class:`~repro.core.SpectralFitPlan` lazily, once per (fold,
  structural-params) key, so the PR 2 sweep amortization survives the
  fork — every worker pays one plan build and then solves its whole chunk
  of γ points against it.

The :func:`get_executor` helper is the single entry point call sites use
to interpret their ``workers`` argument: ``None`` → one worker, an int or
``"auto"`` → that many workers, an :class:`Executor` → used as-is.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..exceptions import ValidationError
from ..obs.trace import (
    attach_worker_sinks,
    emit_metrics,
    jsonl_paths,
    span,
    trace_enabled,
)

__all__ = ["Executor", "get_executor", "spawn_seeds", "available_workers"]


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def spawn_seeds(base_seed: int, n: int) -> tuple[int, ...]:
    """Derive ``n`` independent child seeds from one root seed.

    Uses ``np.random.SeedSequence.spawn``, so child ``i`` is a
    deterministic function of ``(base_seed, i)`` alone — the same task
    index gets the same seed no matter which worker runs it, in what
    order, or whether the run is serial at all. The children are
    collision-resistant by construction (each carries a distinct spawn
    key), unlike ``base_seed + i`` arithmetic which collides across
    overlapping ranges.
    """
    if n < 0:
        raise ValidationError(f"cannot spawn {n} seeds; n must be >= 0")
    children = np.random.SeedSequence(int(base_seed)).spawn(int(n))
    return tuple(
        int(child.generate_state(1, dtype=np.uint32)[0]) for child in children
    )


# -- per-worker state plumbing ---------------------------------------------
#
# ProcessPoolExecutor pickles the submitted callable and its arguments for
# every task. Shipping the (potentially large) shared state — a prepared
# harness, a dataset — per task would drown the fan-out in serialization,
# so the state travels exactly once per worker through the pool
# initializer and lands in a module global the task trampoline reads back.

_WORKER_STATE: dict = {}


def _init_worker(state, trace_paths=()) -> None:
    _WORKER_STATE["state"] = state
    # Tracing config travels with the state: workers append to the same
    # JSONL files as the parent (O_APPEND single-line writes cannot
    # interleave), and an empty config keeps tracing off in the worker.
    # In-memory sinks stay behind — they cannot cross a process
    # boundary. Re-attaching also drops any fork-inherited sinks so a
    # record is never written twice through two copies of one descriptor.
    attach_worker_sinks(trace_paths)


def _run_task(fn, task):
    state = _WORKER_STATE["state"]
    if not trace_enabled():
        return fn(state, task)
    with span("parallel.task", worker=os.getpid()):
        result = fn(state, task)
    # Snapshot this worker's counters after every task; trace consumers
    # keep the last metrics record per pid, so the final task's snapshot
    # is the worker's contribution — pools have no orderly-exit hook to
    # emit from instead.
    emit_metrics()
    return result


class Executor:
    """Deterministic task-mapping executor: an in-process loop or a pool.

    Parameters
    ----------
    workers:
        Worker-process count, or ``"auto"`` (the default) for the CPUs
        available to this process. The effective count is additionally
        capped by the number of tasks; a fan-out that resolves to one
        worker runs serially in this process, so degenerate fan-outs never
        pay pool startup.
    start_method:
        Multiprocessing start method; defaults to ``"fork"`` where
        available (workers inherit the imported numpy/scipy for free) and
        ``"spawn"`` elsewhere.
    """

    def __init__(
        self,
        *,
        workers: int | str = "auto",
        start_method: str | None = None,
    ):
        if workers != "auto":
            try:
                workers = int(workers)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"workers must be a positive int or 'auto'; got {workers!r}"
                ) from None
            if workers < 1:
                raise ValidationError(
                    f"workers must be a positive int or 'auto'; got {workers}"
                )
        self.workers = workers
        self.start_method = start_method

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers!r})"

    # ---------------------------------------------------------- resolution
    def resolve_workers(self, n_tasks: int | None = None) -> int:
        """Concrete worker count for a fan-out of ``n_tasks`` tasks."""
        workers = (
            available_workers() if self.workers == "auto" else self.workers
        )
        if n_tasks is not None:
            workers = max(1, min(workers, n_tasks))
        return workers

    def _context(self):
        method = self.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        return multiprocessing.get_context(method)

    # ----------------------------------------------------------- execution
    def map(self, fn, tasks, *, state=None) -> list:
        """Apply ``fn(state, task)`` to every task; results in task order.

        ``fn`` must be a module-level (picklable) function and a pure
        function of its arguments — the determinism guarantee rests on
        that. ``state`` is shipped to each worker exactly once. Exceptions
        raised by any task propagate to the caller.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        workers = self.resolve_workers(len(tasks))
        if workers <= 1:
            return [fn(state, task) for task in tasks]
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._context(),
            initializer=_init_worker,
            initargs=(state, jsonl_paths()),
        ) as pool:
            # chunksize=1 keeps scheduling dynamic (stragglers don't pin a
            # whole pre-dealt chunk to one worker); map() preserves task
            # order in its results regardless.
            return list(pool.map(functools.partial(_run_task, fn), tasks))


def get_executor(workers=None) -> Executor:
    """Interpret a call site's ``workers`` argument.

    * ``None`` → a one-worker executor (the serial reference loop);
    * an :class:`Executor` → returned unchanged;
    * an int or ``"auto"`` → an executor with that many workers.
    """
    if workers is None:
        return Executor(workers=1)
    if isinstance(workers, Executor):
        return workers
    return Executor(workers=workers)
