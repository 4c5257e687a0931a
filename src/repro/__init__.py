"""repro — Pairwise Fair Representations (PFR).

A complete reproduction of *"Operationalizing Individual Fairness with
Pairwise Fair Representations"* (Lahoti, Gummadi & Weikum, VLDB 2019),
including the PFR model, every baseline the paper compares against, the
fairness-graph constructions, the evaluation measures, the datasets
(simulators calibrated to the paper's Table 1 plus loaders for the real
files), and the experiment harness that regenerates every table and figure.

Quickstart
----------
>>> from repro import PFR, simulate_admissions
>>> from repro.graphs import between_group_quantile_graph
>>> data = simulate_admissions(seed=7)
>>> # rank within groups by label-propensity, link equal quantiles:
>>> from repro.experiments import within_group_ranking_scores
>>> scores = within_group_ranking_scores(data.nonprotected_view(), data.y, data.s)
>>> WF = between_group_quantile_graph(scores, data.s, n_quantiles=10)
>>> Z = PFR(n_components=2, gamma=0.9).fit(data.X, WF).transform(data.X)

Fitted models deploy through :mod:`repro.serving`: a versioned model
registry plus a batched, cached :class:`~repro.serving.TransformService`
(see ``examples/serving_pipeline.py`` and the README).
"""

from ._version import __version__
from ._blas import apply_policy as _apply_blas_policy
from ._lazy import lazy_exports

# Every entry point (CLI, `repro serve`, the library API, the lifecycle
# controller, process workers) passes through here: numpy's OpenBLAS pool
# gets one thread so its spinning workers stop taking CPU from scipy's
# LAPACK pool. OPENBLAS_NUM_THREADS and friends override it (see _blas).
_apply_blas_policy()

# Everything else loads on first access (PEP 562): `import repro` itself
# loads numpy, scipy.linalg (the BLAS policy above) and repro.obs, and
# `python -m repro serve` adds scipy.sparse and the serving, io and
# validation modules. A fitted model's first load brings in repro.core
# and repro.graphs; repro.experiments, repro.baselines, repro.datasets,
# repro.metrics and scipy.optimize load only when a caller names them.
_EXPORTS = {
    "PFR": ".core",
    "KernelPFR": ".core",
    "LandmarkPlan": ".core",
    "SpectralFitPlan": ".core",
    "fit_path": ".core",
    "select_landmarks": ".core",
    "EqualizedOddsPostProcessor": ".baselines",
    "IFair": ".baselines",
    "LFR": ".baselines",
    "MaskedRepresentation": ".baselines",
    "SideInformationAugmenter": ".baselines",
    "Dataset": ".datasets",
    "load_compas": ".datasets",
    "load_crime": ".datasets",
    "simulate_admissions": ".datasets",
    "simulate_compas": ".datasets",
    "simulate_crime": ".datasets",
    "ReproError": ".exceptions",
    "NotFittedError": ".exceptions",
    "ValidationError": ".exceptions",
    "ModelNotFoundError": ".exceptions",
    "ConvergenceError": ".exceptions",
    "DatasetError": ".exceptions",
    "GraphConstructionError": ".exceptions",
    "between_group_quantile_graph": ".graphs",
    "equivalence_class_graph": ".graphs",
    "knn_graph": ".graphs",
    "consistency": ".metrics",
    "group_auc": ".metrics",
    "group_rates": ".metrics",
    "load_model": ".io",
    "save_model": ".io",
    "serving": ".serving",
    "store": ".store",
    "obs": ".obs",
    "lifecycle": ".lifecycle",
}
__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
