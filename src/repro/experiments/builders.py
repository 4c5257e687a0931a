"""Public fairness-graph construction for the three workloads.

The experiment harness needs a ``WF`` per workload; downstream users need
exactly the same logic without instantiating a harness. This module is that
shared, documented entry point:

* **synthetic** — within-group logistic-regression rankings pooled into
  quantiles (§4.2.1);
* **compas** — Northpointe-style decile scores pooled into within-group
  quantiles (§4.3.1, incomparable groups);
* **crime** — resident star ratings rounded into equivalence classes
  (§4.3.1, comparable individuals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..datasets.base import Dataset
from ..datasets.ratings import rating_equivalence_classes
from ..exceptions import ValidationError
from ..graphs import between_group_quantile_graph, equivalence_class_graph
from ..ml import LogisticRegression, StandardScaler

__all__ = [
    "build_fairness_graph",
    "build_fit_plan",
    "fairness_side_scores",
    "make_workload",
    "WorkloadFactory",
]

# Paper (Table 1) sizes per workload: one count for the synthetic
# admissions draw, (negative, positive)-style pair for the two-group
# simulations.
_WORKLOAD_SIZES = {
    "synthetic": (300,),
    "crime": (1423, 570),
    "compas": (4218, 4585),
}


def _scaled(count: int, scale: float) -> int:
    if not 0.0 < scale <= 1.0:
        raise ValidationError(f"scale must be in (0, 1]; got {scale}")
    return max(20, int(round(count * scale)))


def make_workload(name: str, *, seed: int = 0, scale: float = 1.0) -> Dataset:
    """Instantiate one of the paper's three workloads at a size fraction.

    ``name`` is ``"synthetic"``, ``"crime"`` or ``"compas"``; ``scale``
    shrinks the Table 1 sizes for quick runs (floor 20 rows per count).
    The figure drivers, the workload reports, and the CLI's
    ``experiments`` commands all build their datasets here.
    """
    from ..datasets import simulate_admissions, simulate_compas, simulate_crime

    if name not in _WORKLOAD_SIZES:
        raise ValidationError(f"unknown dataset {name!r}")
    sizes = tuple(_scaled(count, scale) for count in _WORKLOAD_SIZES[name])
    if name == "synthetic":
        dataset = simulate_admissions(*sizes, seed=seed)
    elif name == "crime":
        dataset = simulate_crime(*sizes, seed=seed)
    else:
        dataset = simulate_compas(*sizes, seed=seed)
    # Human-readable provenance for run-ledger task descriptors: the
    # ledger keys on the dataset *content* (repro.store.dataset_fingerprint
    # hashes the arrays), but `repro store ls` readers want to know which
    # workload draw a digest came from without reversing a hash.
    dataset.metadata.setdefault(
        "provenance",
        {"workload": name, "seed": int(seed), "scale": float(scale)},
    )
    return dataset


@dataclass(frozen=True)
class WorkloadFactory:
    """Picklable ``f(seed) -> Dataset`` for a named workload.

    The ``repeat_*`` functions take a per-seed dataset factory; a lambda
    works, but this frozen dataclass is a declarative, picklable
    equivalent that survives process boundaries and round-trips through
    configuration — :func:`~repro.experiments.run_spec` builds one per
    ``datasets`` entry of a spec.
    """

    name: str
    scale: float = 1.0

    def __post_init__(self):
        if self.name not in _WORKLOAD_SIZES:
            raise ValidationError(f"unknown dataset {self.name!r}")

    def __call__(self, seed: int) -> Dataset:
        return make_workload(self.name, seed=seed, scale=self.scale)


def fairness_side_scores(dataset: Dataset, *, train_indices=None) -> np.ndarray:
    """Per-individual side information behind the workload's fairness graph.

    For workloads that ship side information (COMPAS decile scores, Crime
    mean ratings) this simply returns it. For the synthetic workload the
    paper derives scores at runtime: a logistic-regression ranker is fitted
    *per group* — on the ``train_indices`` rows when given, to keep test
    labels out of the judgments — and every individual is scored by their
    within-group model.
    """
    if dataset.side_information is not None:
        return np.asarray(dataset.side_information, dtype=np.float64)

    X_plain = dataset.nonprotected_view()
    fit_rows = (
        np.asarray(train_indices, dtype=np.int64)
        if train_indices is not None
        else np.arange(dataset.n_samples)
    )
    scaler = StandardScaler().fit(X_plain[fit_rows])
    X_scaled = scaler.transform(X_plain)
    scores = np.empty(dataset.n_samples, dtype=np.float64)
    for value in np.unique(dataset.s):
        members = np.flatnonzero(dataset.s == value)
        train_members = np.intersect1d(members, fit_rows)
        if len(train_members) < 2:
            raise ValidationError(
                f"group {value!r} has fewer than 2 training individuals"
            )
        model = LogisticRegression().fit(
            X_scaled[train_members], dataset.y[train_members]
        )
        scores[members] = model.predict_proba(X_scaled[members])[:, 1]
    return scores


def build_fairness_graph(
    dataset: Dataset,
    *,
    n_quantiles: int = 10,
    rating_resolution: float = 1.0,
    train_indices=None,
    scores=None,
) -> sp.csr_matrix:
    """Workload-appropriate fairness graph ``WF`` over the full population.

    Parameters
    ----------
    dataset:
        One of the three workloads (dispatches on ``dataset.name``:
        ``"crime"`` uses the equivalence-class construction, everything
        else the between-group quantile construction).
    n_quantiles:
        Quantile count for the quantile graph.
    rating_resolution:
        Star-class width for the Crime equivalence classes.
    train_indices:
        Rows allowed to influence runtime-derived scores (synthetic).
    scores:
        Precomputed side scores (skips :func:`fairness_side_scores`).

    Returns
    -------
    scipy.sparse.csr_matrix
        Binary symmetric adjacency; individuals without side information
        are isolated.
    """
    if scores is None:
        scores = fairness_side_scores(dataset, train_indices=train_indices)
    scores = np.asarray(scores, dtype=np.float64)
    observed = ~np.isnan(scores)
    if dataset.name == "crime":
        classes = rating_equivalence_classes(scores, resolution=rating_resolution)
        return equivalence_class_graph(classes, mask=observed)
    return between_group_quantile_graph(
        scores, dataset.s, n_quantiles=n_quantiles, mask=observed
    )


def build_fit_plan(
    dataset: Dataset,
    *,
    estimator=None,
    n_quantiles: int = 10,
    rating_resolution: float = 1.0,
    train_indices=None,
    scores=None,
    w_x=None,
    landmarks: int | None = None,
    landmark_strategy: str = "kmeans++",
    landmark_seed: int = 0,
):
    """Sweep-ready fit plan for one workload.

    Builds the workload's fairness graph (:func:`build_fairness_graph`) and
    stages the whole PFR precomputation over ``dataset.X`` in one call, so
    downstream code can run γ/d sweeps without an
    :class:`~repro.experiments.ExperimentHarness`::

        plan = build_fit_plan(simulate_crime(498, 200, seed=0))
        evals, V = plan.solve(gamma=0.9, d=4)

    Returns an exact :class:`~repro.core.SpectralFitPlan` by default and a
    :class:`~repro.core.LandmarkPlan` when ``landmarks`` (or an estimator
    with ``extension="nystrom"``) asks for the Nyström scaling path —
    that's how γ-sweeps run on workloads far beyond the paper's n.

    Parameters
    ----------
    dataset:
        One of the workloads (including :func:`~repro.datasets.simulate_blobs`
        for large-n exercises).
    estimator:
        Template :class:`~repro.core.PFR` / :class:`~repro.core.KernelPFR`
        supplying the structural hyper-parameters; defaults to a
        ``PFR`` whose k-NN distances exclude the dataset's protected
        columns (the paper's ``WX`` definition, §3.1).
    n_quantiles, rating_resolution, train_indices, scores:
        Forwarded to :func:`build_fairness_graph`.
    w_x:
        Optional precomputed data graph, bypassing the plan's k-NN stage.
    landmarks, landmark_strategy, landmark_seed:
        Landmark-Nyström knobs applied to the default template (ignored
        when an explicit ``estimator`` is passed — configure it directly).
    """
    from ..core import PFR, plan_for_estimator

    w_fair = build_fairness_graph(
        dataset,
        n_quantiles=n_quantiles,
        rating_resolution=rating_resolution,
        train_indices=train_indices,
        scores=scores,
    )
    if estimator is None:
        approx = {}
        if landmarks is not None:
            approx = dict(
                extension="nystrom",
                landmarks=int(landmarks),
                landmark_strategy=landmark_strategy,
                landmark_seed=landmark_seed,
            )
        estimator = PFR(
            exclude_columns=list(dataset.protected_columns), **approx
        )
    return plan_for_estimator(estimator, dataset.X, w_fair, w_x=w_x)
