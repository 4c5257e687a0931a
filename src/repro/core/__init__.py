"""The paper's primary contribution: Pairwise Fair Representations.

* :class:`PFR` — linear PFR (Equations 5–7).
* :class:`KernelPFR` — kernelized extension (Equation 8, §3.3.4).
* :class:`SpectralFitPlan` / :func:`fit_path` — the staged fit pipeline
  that makes γ- and d-sweeps reuse all upstream precomputation.
* :class:`LandmarkPlan` / :func:`select_landmarks` /
  :func:`nystrom_extend` — the landmark-Nyström scaling layer
  (``extension="nystrom"``) that fits on ``m ≪ n`` landmarks and
  transforms arbitrary unseen rows.
* :mod:`repro.core.trace_optimization` — the shared eigensolver layer.
"""

from .approx import (
    LANDMARK_STRATEGIES,
    LandmarkPlan,
    embedding_fidelity,
    nystrom_extend,
    plan_for_estimator,
    row_agreement,
    select_landmarks,
)
from .kernel_pfr import KernelPFR, kernel_matrix
from .pfr import PFR
from .plan import Precomputed, SpectralFitPlan, fit_path
from .trace_optimization import (
    objective_matrix,
    pairwise_loss,
    sign_normalize,
    smallest_eigenvectors,
)

__all__ = [
    "LANDMARK_STRATEGIES",
    "LandmarkPlan",
    "PFR",
    "KernelPFR",
    "Precomputed",
    "SpectralFitPlan",
    "embedding_fidelity",
    "fit_path",
    "kernel_matrix",
    "nystrom_extend",
    "objective_matrix",
    "pairwise_loss",
    "plan_for_estimator",
    "row_agreement",
    "select_landmarks",
    "sign_normalize",
    "smallest_eigenvectors",
]
