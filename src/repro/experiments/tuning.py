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

Every grid point is a ``tuned_point`` cell on the one experiment-cell
executor, with no special case: its folds fit through the same path as
a cell's, so the harness's ``method_overrides`` apply, and the harness's
``store`` skips ledgered points. The PFR grid's dominant axis is γ, and
each fold's fit plan (graphs, Laplacians, projected objective matrices)
is built once per search and reused by every γ point, so widening the γ
grid is nearly free.
"""

from __future__ import annotations

from ..exceptions import ValidationError
from .harness import ExperimentHarness

__all__ = ["default_grid", "tune_methods"]

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
) -> dict:
    """Grid-search every method on the harness's training split.

    Parameters
    ----------
    harness:
        A prepared (or preparable) harness for the workload. With a
        ``store``, every grid point is read from or written to its ledger,
        so a killed search resumes at the missing points and a widened
        grid pays only its new points.
    methods:
        Methods to tune (``hardt`` has no representation hyper-parameters
        and is rejected).
    grids:
        Optional ``{method: grid}`` overrides of :func:`default_grid`.
    n_splits, scoring:
        Cross-validation configuration (the paper: 5 folds).
    workers:
        Fan each method's grid points out across processes (``None`` =
        serial; an int, ``"auto"``, or an
        :class:`~repro.experiments.parallel.Executor`). Tuned operating
        points are bitwise identical either way.

    Returns
    -------
    dict
        ``{method: {"best_params", "best_score", "results"}}``.
    """
    grids = grids or {}
    return {
        method: harness.tune(
            method, grids.get(method, default_grid(method)),
            n_splits=n_splits, scoring=scoring, workers=workers,
        )
        for method in methods
    }
