"""PFR — Pairwise Fair Representations (paper §3.3, the primary contribution).

PFR learns a linear map ``Z = X V`` (``V`` of shape ``(m, d)``, row-sample
convention) by minimizing

    (1-γ) Σ_ij ||z_i - z_j||² WX_ij + γ Σ_ij ||z_i - z_j||² WF_ij
    subject to  VᵀV = I                                       (Equation 5)

which reduces (§3.3.2) to taking the ``d`` smallest eigenvectors of
``Xᵀ((1-γ)L_X + γL_F)X`` (Equation 7). ``WX`` is the k-NN heat-kernel graph
over the non-protected attributes; ``WF`` is the fairness graph elicited
from pairwise judgments (:mod:`repro.graphs.fairness`).

Once fitted, :meth:`PFR.transform` maps *unseen* individuals into the fair
representation using only their data attributes — no judgments are needed at
test time, which is the property that makes the method deployable.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_array, check_is_fitted
from ..exceptions import ValidationError
from ..ml.base import BaseEstimator, TransformerMixin
from .approx import plan_for_estimator

__all__ = ["PFR"]


class PFR(BaseEstimator, TransformerMixin):
    """Pairwise Fair Representation learner (linear variant).

    The fit computes in float64 throughout: an exact k-NN graph
    (:mod:`repro.graphs.knn`) and a dense LAPACK eigensolve
    (:mod:`repro.core.trace_optimization`), as in the paper.

    Parameters
    ----------
    n_components:
        Latent dimensionality ``d`` (must satisfy ``d <= m``).
    gamma:
        Trade-off ``γ ∈ [0, 1]`` between the data graph ``WX`` (γ=0) and the
        fairness graph ``WF`` (γ=1) — Equation 5.
    n_neighbors:
        ``p`` for the k-NN graph built when no ``WX`` is supplied to ``fit``.
    bandwidth:
        Heat-kernel bandwidth ``t``; ``None`` = median heuristic.
    exclude_columns:
        Indices of protected-attribute columns, excluded from the k-NN
        distance (the paper computes ``Np`` "excluding the protected
        attributes"). Only used when ``fit`` builds ``WX`` itself.
        Multi-valued protected attributes (§3.1 allows more than two
        groups) should be **one-hot encoded**: a single integer-coded
        column cannot linearly absorb non-monotone per-group shifts, so
        the linear map would be unable to align the groups.
    normalized_laplacian:
        Use symmetric-normalized Laplacians instead of combinatorial ones
        (an ablation; the paper uses combinatorial).
    rescale:
        How to balance the two graph terms before mixing with γ:

        * ``"objective"`` (default) — normalize the projected objective
          matrices ``XᵀL_XX`` and ``XᵀL_FX`` by their traces, so γ
          interpolates between the two *losses* of Equation 5 on a common
          scale. Required to reproduce the paper's smooth γ-sweeps when
          ``WF`` is orders of magnitude denser than ``WX``
          (equivalence-class cliques, quantile graphs).
        * ``"degree"`` — divide each Laplacian by its average degree.
        * ``"none"`` — the verbatim Equation 6 combination.
    constraint:
        ``"z"`` (default) enforces the paper's Equation 5 constraint
        ``ZZᵀ = I`` via the generalized eigenproblem
        ``X L Xᵀ v = λ X Xᵀ v`` (LPP-style). ``"v"`` enforces Equation 6's
        ``VᵀV = I`` via the standard eigenproblem. The two equations in the
        paper are inconsistent; ``"v"`` is pathological when X has (near-)
        collinear columns because the smallest eigenvectors then live in
        X's null space where the objective is trivially zero; see
        ``TestAblationClaims::test_default_formulation_beats_literal_eq6``
        in ``tests/test_paper_claims.py`` for the utility it costs.
    ridge:
        Regularization added to ``XᵀX`` in the ``"z"`` mode to keep the
        generalized problem well-posed for rank-deficient X.
    extension:
        ``"exact"`` (default) solves the paper's eigenproblem over all n
        training rows. ``"nystrom"`` solves it on ``landmarks`` selected
        rows only (:class:`repro.core.LandmarkPlan`) — the scaling path
        for n far beyond the paper's datasets; the learned map transforms
        arbitrary unseen rows either way.
    landmarks:
        Number of landmark rows ``m ≪ n`` for ``extension="nystrom"``
        (clamped to n, so ``landmarks >= n`` reproduces the exact solve).
    landmark_strategy:
        ``"uniform"``, ``"kmeans++"`` (default) or ``"farthest"`` — see
        :func:`repro.core.select_landmarks`.
    landmark_seed:
        Seed for the landmark selection (fits stay pure functions of the
        constructor arguments and the data).

    Attributes
    ----------
    components_ : ndarray of shape (m, d)
        The learned orthonormal basis ``V``; columns are eigenvectors of the
        objective matrix in ascending eigenvalue order.
    eigenvalues_ : ndarray of shape (d,)
        Eigenvalues associated with each component.
    n_features_in_ : int
        Number of input features ``m`` seen during fit.
    plan_digests_ : dict
        SHA-256 digests of the fit plan's stages (graph, laplacian,
        projection, solve; plus ``landmarks`` for nystrom fits) — the
        provenance trail the serving registry records in its manifests.
    landmark_indices_ : ndarray or None
        Sorted training-row indices the nystrom fit solved on; ``None``
        for exact fits.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import PFR
    >>> from repro.graphs import between_group_quantile_graph
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(40, 5))
    >>> groups = np.repeat([0, 1], 20)
    >>> scores = rng.random(40)
    >>> WF = between_group_quantile_graph(scores, groups, n_quantiles=4)
    >>> Z = PFR(n_components=2, gamma=0.5).fit(X, WF).transform(X)
    >>> Z.shape
    (40, 2)
    """

    def __init__(
        self,
        n_components: int = 2,
        gamma: float = 0.5,
        n_neighbors: int = 10,
        bandwidth: float | None = None,
        exclude_columns=None,
        normalized_laplacian: bool = False,
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
        self.n_neighbors = n_neighbors
        self.bandwidth = bandwidth
        self.exclude_columns = exclude_columns
        self.normalized_laplacian = normalized_laplacian
        self.rescale = rescale
        self.constraint = constraint
        self.ridge = ridge
        self.extension = extension
        self.landmarks = landmarks
        self.landmark_strategy = landmark_strategy
        self.landmark_seed = landmark_seed

    def fit(self, X, w_fair, *, w_x=None):
        """Learn the fair basis ``V`` from data and a fairness graph.

        A thin driver over :class:`repro.core.SpectralFitPlan`: the four
        fit stages (graph, Laplacian, projection, solve) run once for this
        (γ, d) operating point. To fit many operating points on the same
        data, build the plan once — see :func:`repro.core.fit_path`.

        Parameters
        ----------
        X:
            Feature matrix of shape ``(n, m)``.
        w_fair:
            Fairness-graph adjacency ``WF`` of shape ``(n, n)`` (sparse or
            dense, symmetric, non-negative). May be all-zero — PFR then
            degrades gracefully to Laplacian-eigenmap dimensionality
            reduction on ``WX``.
        w_x:
            Optional precomputed data-similarity graph ``WX``. When omitted,
            the k-NN heat-kernel graph is built from ``X`` using the
            constructor's ``n_neighbors`` / ``bandwidth`` /
            ``exclude_columns``.
        """
        return plan_for_estimator(self, X, w_fair, w_x=w_x).fit(self)

    def transform(self, X) -> np.ndarray:
        """Project (possibly unseen) individuals: ``Z = X V``, shape ``(n, d)``."""
        check_is_fitted(self, "components_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features; PFR was fitted with {self.n_features_in_}"
            )
        return X @ self.components_

    def fit_transform(self, X, w_fair=None, **fit_params):
        """Fit on ``(X, w_fair)`` and return the transformed training data."""
        if w_fair is None:
            raise ValidationError("PFR.fit_transform requires the fairness graph w_fair")
        return self.fit(X, w_fair, **fit_params).transform(X)

    def objective_value(self, X, W) -> float:
        """Pairwise loss ``Σ_ij ||z_i - z_j||² W_ij`` of the fitted map on graph ``W``.

        Useful for inspecting how much of each graph's structure the learned
        representation preserves (Equations 3–4 evaluated at the optimum).
        """
        from .trace_optimization import pairwise_loss

        return pairwise_loss(self.transform(X), W)
