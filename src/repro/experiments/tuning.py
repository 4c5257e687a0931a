"""The paper's hyper-parameter tuning protocol, end to end (§4.1).

"Each dataset is split into separate training and test sets. On the
training set, we perform 5-fold cross-validation to find the best
hyper-parameters for each model via grid search."

:func:`default_grid` holds the canonical search space per method;
:func:`tune_methods` runs the search for any subset of methods on a
workload and returns the winning operating points, which can be fed
straight back into :meth:`ExperimentHarness.run_method`. The figure
drivers ship with the results of this procedure baked in (see
``figures.workload_harness``); this module lets you re-derive or extend them.

The PFR grid's dominant axis is γ, and the harness routes every PFR fold
fit through a cached :class:`~repro.core.SpectralFitPlan` keyed on (fold,
structural params): the fold's graphs, Laplacians and projected objective
matrices are built once and every γ point in the grid reuses them, so
widening the γ grid is nearly free.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .harness import ExperimentHarness

__all__ = ["default_grid", "tune_methods", "apply_tuned"]

_GRIDS = {
    "original": {"C": [0.01, 0.1, 1.0, 10.0]},
    "pfr": {
        "gamma": [0.0, 0.3, 0.5, 0.7, 0.9, 1.0],
        "C": [0.1, 1.0, 10.0],
    },
    "ifair": {
        "n_prototypes": [5, 10],
        "mu_fair": [0.1, 1.0, 5.0],
        "C": [1.0],
    },
    "lfr": {
        "a_x": [0.01, 0.1],
        "a_z": [1.0, 10.0, 50.0],
        "C": [1.0],
    },
}


def default_grid(method: str) -> dict:
    """The canonical search grid for a method (copy; edit freely)."""
    base = method.rstrip("+")
    if base not in _GRIDS:
        raise ValidationError(
            f"no default grid for {method!r}; known: {sorted(_GRIDS)}"
        )
    return {key: list(values) for key, values in _GRIDS[base].items()}


def tune_methods(
    harness: ExperimentHarness,
    methods=("original", "pfr"),
    *,
    grids: dict | None = None,
    n_splits: int = 5,
    scoring: str = "roc_auc",
    workers=None,
    store=None,
) -> dict:
    """Grid-search every method on the harness's training split.

    Parameters
    ----------
    harness:
        A prepared (or preparable) harness for the workload.
    methods:
        Methods to tune (``hardt`` has no representation hyper-parameters
        and is rejected).
    grids:
        Optional ``{method: grid}`` overrides of :func:`default_grid`.
    n_splits, scoring:
        Cross-validation configuration (the paper: 5 folds).
    workers:
        Fan each method's γ×C grid points out across processes (``None``
        = serial; an int, ``"auto"``, or an
        :class:`~repro.experiments.parallel.Executor`). Tuned operating
        points are bitwise identical either way.
    store:
        Run-ledger directory or :class:`~repro.store.RunLedger` used for
        this search only (the harness's own ``store`` is restored
        afterwards): every grid point is read-through/written-through the
        ledger, so a killed search resumes at the missing points and a
        widened grid pays only its new points.

    Returns
    -------
    dict
        ``{method: {"best_params", "best_score", "results"}}``.
    """
    harness.prepare()
    grids = grids or {}
    out = {}
    previous_store = harness.store
    if store is not None:
        harness.store = store
    try:
        for method in methods:
            grid = grids.get(method, default_grid(method))
            out[method] = harness.tune(
                method, grid, n_splits=n_splits, scoring=scoring,
                workers=workers,
            )
    finally:
        harness.store = previous_store
    return out


def apply_tuned(harness: ExperimentHarness, method: str, tuned: dict):
    """Run a method at its tuned operating point and return the MethodResult.

    ``tuned`` is one entry of :func:`tune_methods`'s output.
    """
    params = dict(tuned["best_params"])
    C = params.pop("C", 1.0)
    gamma = params.pop("gamma", 0.5)
    return harness.run_method(method, gamma=gamma, C=C, **params)
