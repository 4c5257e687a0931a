"""Cross-seed repetition: error bars for any experiment.

Single-seed results can flatter or slander a method; this module re-runs a
method (or a whole method set) across seeds — fresh data draw *and* fresh
split per seed — and aggregates every scalar metric into mean ± std, the
form reviewers expect.

Each ``repeat_*`` function is a thin compiler onto the one experiment-cell
executor in :mod:`repro.experiments.spec` that :func:`run_spec` and
:meth:`ExperimentHarness.run_methods`/``gamma_sweep`` also use: the
user's ``dataset_factory`` is called in the parent (so lambdas work even
with process workers), each seed is one slice, and its (method, γ) cells
are skipped when the ledger holds them, dispatched slice by slice, and
read back. Each worker runs whole seeds (split only when there are fewer
seeds than workers), so the per-seed staged-fit reuse is preserved and
the aggregates are bitwise identical to a serial run.
"""

from __future__ import annotations

import functools

import numpy as np

from ..exceptions import ValidationError
from ..store import coerce_ledger
from .harness import ExperimentHarness
from .parallel import spawn_seeds
from .spec import AggregateResult, _collect, _run_calls

__all__ = [
    "AggregateResult",
    "repeat_method",
    "repeat_methods",
    "repeat_gamma_sweep",
]


def _normalize_seeds(seeds) -> tuple[int, ...]:
    """Validate and materialize the ``seeds`` argument.

    Accepts an explicit sequence of seeds, or an int ``n`` which derives
    ``n`` independent seeds deterministically via
    :func:`~repro.experiments.parallel.spawn_seeds` (root 0). Rejects
    empty sequences up front — downstream aggregation would otherwise die
    with an inscrutable ``IndexError``.
    """
    if isinstance(seeds, (int, np.integer)):
        count = int(seeds)
        if count < 2:
            raise ValidationError(
                f"repetition needs at least two seeds; got seeds={count}"
            )
        return spawn_seeds(0, count)
    seeds = tuple(int(seed) for seed in seeds)
    if len(seeds) < 2:
        raise ValidationError(
            "repetition needs at least two seeds; got "
            + (f"{len(seeds)}" if seeds else "an empty seeds sequence")
        )
    return seeds


def _repeat(
    dataset_factory, seeds, methods, gammas, method_params: dict, *,
    harness_kwargs, workers, store,
) -> list:
    """One per-seed result list per (method, γ) call. Datasets are drawn
    here, in seed order; each slice is a picklable builder of an unprepared
    harness, so a worker prepares only the seeds it runs."""
    kwargs = dict(harness_kwargs or {})
    if store is not None:
        kwargs["store"] = store
    slices = [functools.partial(ExperimentHarness, dataset_factory(seed),
                                seed=seed, **kwargs) for seed in seeds]
    results = _run_calls(
        slices, methods, gammas, method_params,
        ledger=coerce_ledger(kwargs.get("store")), workers=workers,
    )
    calls = len(methods) * len(gammas)
    return [results[i::calls] for i in range(calls)]


def repeat_method(
    dataset_factory,
    method: str,
    *,
    seeds=(0, 1, 2),
    gamma: float = 0.5,
    harness_kwargs: dict | None = None,
    workers=None,
    store=None,
    **method_params,
) -> AggregateResult:
    """Run one method across seeds and aggregate.

    Parameters
    ----------
    dataset_factory:
        ``f(seed) -> Dataset`` — a fresh data draw per seed (e.g.
        ``lambda s: simulate_crime(498, 200, seed=s)``). Called in the
        parent process, so lambdas are fine even with process workers.
    method:
        Harness method name.
    seeds:
        Seeds; each seeds both the dataset and the harness split. An int
        ``n`` derives ``n`` seeds via ``np.random.SeedSequence.spawn``.
    gamma, **method_params:
        Forwarded to :meth:`ExperimentHarness.run_method`.
    harness_kwargs:
        Extra :class:`ExperimentHarness` constructor arguments.
    workers:
        Fan seeds out across processes (``None`` = serial); results are
        bitwise identical either way.
    store:
        Run-ledger directory or :class:`~repro.store.RunLedger`; every
        per-seed cell is read-through/written-through the ledger, so a
        killed repetition resumes at the missing seeds' cells.
    """
    (results,) = _repeat(
        dataset_factory, _normalize_seeds(seeds), [method], [gamma],
        method_params, harness_kwargs=harness_kwargs, workers=workers,
        store=store,
    )
    return _collect(results)


def repeat_gamma_sweep(
    dataset_factory,
    gammas,
    *,
    method: str = "pfr",
    seeds=(0, 1, 2),
    harness_kwargs: dict | None = None,
    workers=None,
    store=None,
    **method_params,
) -> dict:
    """Error-barred γ-sweep: Figures 4/7/10 with mean ± std per γ.

    One harness per seed runs the whole sweep, so the staged fit pipeline
    (:class:`~repro.core.SpectralFitPlan`) builds each seed's graphs,
    Laplacians and projected objective matrices once and reuses them across
    every γ — the per-point cost is a mix + eigensolve, not a refit. With
    ``workers`` set, seeds fan out across processes and each worker keeps
    that per-seed reuse intact.

    Returns ``{gamma: AggregateResult}`` in the input γ order.
    """
    seeds = _normalize_seeds(seeds)
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValidationError("repeat_gamma_sweep needs at least one gamma")
    if len(set(gammas)) != len(gammas):
        # per-γ aggregation keys on the value; duplicates would silently
        # merge and double-count n_runs.
        raise ValidationError(f"gammas contains duplicates: {gammas}")
    per_gamma = _repeat(
        dataset_factory, seeds, [method], gammas, method_params,
        harness_kwargs=harness_kwargs, workers=workers, store=store,
    )
    return {
        gamma: _collect(results) for gamma, results in zip(gammas, per_gamma)
    }


def repeat_methods(
    dataset_factory,
    methods,
    *,
    seeds=(0, 1, 2),
    gamma: float = 0.5,
    harness_kwargs: dict | None = None,
    workers=None,
    store=None,
) -> dict:
    """Aggregate several methods on the same per-seed datasets and splits."""
    seeds = _normalize_seeds(seeds)
    methods = tuple(methods)
    per_method = _repeat(
        dataset_factory, seeds, methods, [gamma], {},
        harness_kwargs=harness_kwargs, workers=workers, store=store,
    )
    return {method: _collect(results)
            for method, results in zip(methods, per_method)}
