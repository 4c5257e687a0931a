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

from .baselines import (
    EqualizedOddsPostProcessor,
    IFair,
    LFR,
    MaskedRepresentation,
    SideInformationAugmenter,
)
from .core import (
    PFR,
    KernelPFR,
    LandmarkPlan,
    SpectralFitPlan,
    fit_path,
    select_landmarks,
)
from .datasets import (
    Dataset,
    load_compas,
    load_crime,
    simulate_admissions,
    simulate_compas,
    simulate_crime,
)
from .exceptions import (
    ConvergenceError,
    DatasetError,
    GraphConstructionError,
    ModelNotFoundError,
    NotFittedError,
    ReproError,
    ValidationError,
)
from .graphs import (
    between_group_quantile_graph,
    equivalence_class_graph,
    knn_graph,
)
from .io import load_model, save_model
from .metrics import (
    consistency,
    group_auc,
    group_rates,
)

from ._version import __version__
from ._blas import apply_policy as _apply_blas_policy

# Every entry point (CLI, `repro serve`, the library API, the lifecycle
# controller, process workers) passes through here: numpy's OpenBLAS pool
# gets one thread so its spinning workers stop taking CPU from scipy's
# LAPACK pool. OPENBLAS_NUM_THREADS and friends override it (see _blas).
_apply_blas_policy()


def __getattr__(name):
    # Lazy subpackage: `repro.serving` (threads, registry machinery) loads
    # only when first touched, keeping `import repro` and the experiment
    # CLI paths free of the serving stack (PEP 562). Uses importlib
    # directly: a `from . import serving` here would re-enter __getattr__.
    if name in ("serving", "store", "obs", "lifecycle"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "PFR",
    "KernelPFR",
    "LandmarkPlan",
    "SpectralFitPlan",
    "fit_path",
    "select_landmarks",
    "EqualizedOddsPostProcessor",
    "IFair",
    "LFR",
    "MaskedRepresentation",
    "SideInformationAugmenter",
    "Dataset",
    "load_compas",
    "load_crime",
    "simulate_admissions",
    "simulate_compas",
    "simulate_crime",
    "ReproError",
    "NotFittedError",
    "ValidationError",
    "ModelNotFoundError",
    "ConvergenceError",
    "DatasetError",
    "GraphConstructionError",
    "between_group_quantile_graph",
    "equivalence_class_graph",
    "knn_graph",
    "consistency",
    "group_auc",
    "group_rates",
    "load_model",
    "save_model",
    "serving",
    "store",
    "obs",
    "lifecycle",
    "__version__",
]
