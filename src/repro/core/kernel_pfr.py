"""Kernelized PFR (paper §3.3.4 — flagged by the authors as future work).

Replaces the linear map ``Z = X V`` with ``Z = Φ(X) V`` where
``V = Σ_i α_i Φ(x_i)`` lives in the feature space of a Mercer kernel
``K_ij = k(x_i, x_j)``. The optimization becomes (Equation 8)

    K ((1-γ) L_X + γ L_F) K α = λ α

and the representation of any point set is ``Z = A ᵀK`` — in row convention,
``Z = K(X_new, X_train) A`` with ``A = [α_1 … α_d]``.

The paper evaluates only linear PFR; this module implements the extension so
the ablation benchmarks can quantify what the kernel buys on non-linearly
structured data.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_array, check_is_fitted
from ..exceptions import ValidationError
from ..graphs.knn import _sq_distances_to, _sq_norms, median_heuristic
from ..ml.base import BaseEstimator, TransformerMixin
from .approx import plan_for_estimator

__all__ = ["KernelPFR", "kernel_matrix"]


def kernel_matrix(
    X,
    Y=None,
    *,
    kernel: str = "rbf",
    bandwidth: float | None = None,
    degree: int = 3,
    coef0: float = 1.0,
) -> np.ndarray:
    """Mercer kernel matrix between rows of ``X`` and ``Y``.

    Supported kernels: ``"linear"`` (x·y), ``"rbf"``
    (``exp(-||x-y||²/t)``, ``t`` = median heuristic when unset) and
    ``"poly"`` (``(x·y + coef0)^degree``), computed in float64.
    """
    X = check_array(X, name="X", dtype=None)
    Y = X if Y is None else check_array(Y, name="Y", dtype=None)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    return _kernel_block(
        X, Y, None, kernel=kernel, bandwidth=bandwidth, degree=degree,
        coef0=coef0,
    )


def _kernel_block(X, Y, y_sq, *, kernel, bandwidth, degree, coef0) -> np.ndarray:
    """:func:`kernel_matrix` of checked float64 ``X`` and ``Y``.

    ``y_sq`` is ``Y``'s squared row norms for the rbf kernel, or ``None``
    to compute them here.
    """
    if X.shape[1] != Y.shape[1]:
        raise ValidationError(
            f"X and Y have different feature counts: {X.shape[1]} vs {Y.shape[1]}"
        )
    if kernel == "linear":
        return X @ Y.T
    if kernel == "rbf":
        if bandwidth is None:
            bandwidth = median_heuristic(Y)
        if bandwidth <= 0:
            raise ValidationError(f"bandwidth must be positive; got {bandwidth}")
        # exp(-d / t) in place in the distance matrix.
        K = _sq_distances_to(X, Y, _sq_norms(Y) if y_sq is None else y_sq)
        np.negative(K, out=K)
        np.divide(K, bandwidth, out=K)
        return np.exp(K, out=K)
    if kernel == "poly":
        if degree < 1:
            raise ValidationError(f"degree must be >= 1; got {degree}")
        return (X @ Y.T + coef0) ** degree
    raise ValidationError(f"unknown kernel {kernel!r}; use 'linear', 'rbf' or 'poly'")


class KernelPFR(BaseEstimator, TransformerMixin):
    """Kernelized Pairwise Fair Representation learner (Equation 8).

    Parameters mirror :class:`repro.core.PFR` plus the kernel configuration
    and the landmark-Nyström knobs (``extension``, ``landmarks``,
    ``landmark_strategy``, ``landmark_seed`` — see
    :class:`repro.core.LandmarkPlan`). The training data is retained
    (needed to kernelize new points), so memory is O(n·m) + O(n·d) for the
    exact solve and O(landmarks·m) + O(landmarks·d) for the nystrom one —
    the kernel variant is where landmarks matter most, since the exact fit
    also costs an O(n³) eigendecomposition.

    Attributes
    ----------
    alphas_ : ndarray of shape (n, d)
        Dual coefficients ``A = [α_1 … α_d]`` (rows follow ``X_fit_``).
    eigenvalues_ : ndarray of shape (d,)
        Ascending eigenvalues of ``K L K``.
    X_fit_ : ndarray of shape (n, m)
        Retained training data for out-of-sample kernel evaluation — the
        landmark rows only for nystrom fits, which is exactly the Nyström
        out-of-sample map ``Z = K(X_new, X_landmarks) A``.
    plan_digests_ : dict
        SHA-256 digests of the fit plan's stages (graph, laplacian,
        projection, solve; plus ``landmarks`` for nystrom fits) — the
        provenance trail the serving registry records in its manifests.
    landmark_indices_ : ndarray or None
        Sorted training-row indices the nystrom fit solved on; ``None``
        for exact fits.
    """

    def __init__(
        self,
        n_components: int = 2,
        gamma: float = 0.5,
        kernel: str = "rbf",
        kernel_bandwidth: float | None = None,
        degree: int = 3,
        coef0: float = 1.0,
        n_neighbors: int = 10,
        bandwidth: float | None = None,
        exclude_columns=None,
        rescale: str = "objective",
        constraint: str = "z",
        ridge: float = 1e-8,
        extension: str = "exact",
        landmarks: int | None = None,
        landmark_strategy: str = "kmeans++",
        landmark_seed: int = 0,
    ):
        self.n_components = n_components
        self.gamma = gamma
        self.kernel = kernel
        self.kernel_bandwidth = kernel_bandwidth
        self.degree = degree
        self.coef0 = coef0
        self.n_neighbors = n_neighbors
        self.bandwidth = bandwidth
        self.exclude_columns = exclude_columns
        self.rescale = rescale
        self.constraint = constraint
        self.ridge = ridge
        self.extension = extension
        self.landmarks = landmarks
        self.landmark_strategy = landmark_strategy
        self.landmark_seed = landmark_seed

    def fit(self, X, w_fair, *, w_x=None):
        """Learn dual coefficients ``A`` from data and a fairness graph.

        A thin driver over :class:`repro.core.SpectralFitPlan`, which also
        clamps ``n_neighbors`` to ``n - 1`` when the internal k-NN graph is
        built (matching :meth:`repro.core.PFR.fit`). To fit many (γ, d)
        operating points on the same data, build the plan once — see
        :func:`repro.core.fit_path`.
        """
        return plan_for_estimator(self, X, w_fair, w_x=w_x).fit(self)

    def transform(self, X) -> np.ndarray:
        """Project points through the kernel: ``Z = K(X, X_fit) A``."""
        return self._kernel_rows(X) @ self.alphas_

    def _kernel_rows(self, X) -> np.ndarray:
        """``K(X, X_fit_)``: the half of :meth:`transform` that γ leaves alone.

        Only ``alphas_`` depends on γ, so a γ-sweep over one plan can keep
        these rows and pay one product per point. Passing ``X_fit_`` itself
        computes ``K(X, X)`` through a symmetric product, which differs in
        the last bits from the general product an equal copy would take.
        """
        check_is_fitted(self, "alphas_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features; KernelPFR was fitted with "
                f"{self.n_features_in_}"
            )
        X_fit, fit_sq = self._fit_reference()
        return _kernel_block(
            X,
            X_fit,
            fit_sq,
            kernel=self.kernel,
            bandwidth=self._fitted_bandwidth,
            degree=self.degree,
            coef0=self.coef0,
        )

    def _fit_reference(self) -> tuple[np.ndarray, np.ndarray]:
        """``X_fit_`` checked as float64, and its squared row norms.

        Both are derived once per ``X_fit_`` array, so a served model stops
        re-validating and re-squaring its fixed reference rows on every
        request. They are re-derived whenever ``X_fit_`` is replaced, are
        never persisted, and a non-finite ``X_fit_`` caches nothing, so it
        is rejected on every call.
        """
        X_fit = self.X_fit_
        cached = getattr(self, "_fit_norms", None)
        if cached is None or cached[0] is not X_fit:
            Y = np.asarray(check_array(X_fit, name="Y", dtype=None), dtype=np.float64)
            cached = self._fit_norms = (X_fit, Y, _sq_norms(Y))
        return cached[1], cached[2]

    def fit_transform(self, X, w_fair=None, **fit_params):
        """Fit on ``(X, w_fair)`` and return the transformed training data."""
        if w_fair is None:
            raise ValidationError("KernelPFR.fit_transform requires the fairness graph")
        return self.fit(X, w_fair, **fit_params).transform(X)
