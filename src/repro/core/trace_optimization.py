"""Trace-minimization layer shared by linear and kernel PFR (paper §3.3.2–3.3.3).

Both PFR variants reduce to: find the ``d`` eigenvectors with smallest
eigenvalues of a symmetric positive semi-definite matrix

    linear PFR:  M = X ((1-γ) L_X + γ L_F) Xᵀ      (m × m, Equation 7)
    kernel PFR:  M = K ((1-γ) L_X + γ L_F) K        (n × n, Equation 8)

(using the paper's column-sample convention; this library stores samples as
rows, so the linear case is ``Xᵀ L X``). As in the paper, the solve is
dense LAPACK ``eigh`` with index subsetting, in float64, exact to machine
precision. This module also holds the helpers that assemble the objective
matrix and evaluate the pairwise loss ``Σ_ij ||z_i - z_j||² W_ij =
2·Tr(Zᵀ L Z)`` used by tests and benchmarks. Every solve bumps the
``eig.solve`` counter in :mod:`repro.obs`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .._validation import check_array, check_symmetric
from ..exceptions import ValidationError
from ..obs.metrics import get_registry
from ..obs.trace import span

__all__ = [
    "smallest_eigenvectors",
    "objective_matrix",
    "pairwise_loss",
    "sign_normalize",
]


def sign_normalize(V: np.ndarray) -> np.ndarray:
    """Fix eigenvector signs deterministically.

    Each column is flipped so its largest-magnitude entry is positive,
    making learned transforms reproducible across LAPACK builds and runs.
    """
    V = np.array(V, dtype=np.float64, copy=True)
    if V.size == 0:
        return V
    # One vectorized pass: per-column pivot rows (first-max, like argmax in
    # the scalar loop), then flip every column whose pivot entry is negative.
    pivots = np.argmax(np.abs(V), axis=0)
    flip = V[pivots, np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    return V


def smallest_eigenvectors(M, d: int, *, B=None):
    """Eigenvectors of the ``d`` smallest eigenvalues of a symmetric matrix.

    Parameters
    ----------
    M:
        Symmetric (dense or sparse) matrix of shape ``(k, k)``; a sparse
        one is densified, and either is solved in float64.
    d:
        Number of eigenpairs, ``1 <= d <= k``.
    B:
        Optional symmetric positive-definite matrix for the *generalized*
        problem ``M v = λ B v`` (used by PFR's ``ZZᵀ = I`` constraint mode,
        where ``B = Xᵀ X``). Eigenvectors are then B-orthonormal
        (``VᵀBV = I``).

    Returns
    -------
    eigenvalues : ndarray of shape (d,)
        Ascending eigenvalues.
    eigenvectors : ndarray of shape (k, d)
        Orthonormal (B-orthonormal in the generalized case), sign-normalized
        eigenvectors (columns).
    """
    k = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValidationError(f"M must be square; got shape {M.shape}")
    if not 1 <= d <= k:
        raise ValidationError(f"d must be in [1, {k}]; got {d}")
    get_registry().inc("eig.solve")
    dense = np.asarray(M.toarray() if sp.issparse(M) else M, dtype=np.float64)

    if B is not None:
        dense_b = np.asarray(B.toarray() if sp.issparse(B) else B, dtype=np.float64)
        if dense_b.shape != dense.shape:
            raise ValidationError(
                f"B must match M's shape {dense.shape}; got {dense_b.shape}"
            )
        dense = 0.5 * (dense + dense.T)
        dense_b = 0.5 * (dense_b + dense_b.T)
        with span("core.eig", k=int(k), d=int(d), generalized=True):
            eigenvalues, eigenvectors = scipy.linalg.eigh(
                dense, dense_b, subset_by_index=(0, d - 1)
            )
        return eigenvalues, sign_normalize(eigenvectors)

    # 0.5·(M + Mᵀ) in one temporary. It is exactly symmetric, so its
    # transpose (Fortran order, LAPACK's layout) holds the same values
    # and eigh can work in it in place instead of copying it.
    sym = np.add(dense, dense.T)
    sym *= 0.5
    sym = check_symmetric(sym, name="M")
    with span("core.eig", k=int(k), d=int(d)):
        eigenvalues, eigenvectors = scipy.linalg.eigh(
            sym.T, overwrite_a=True, subset_by_index=(0, d - 1)
        )
    return eigenvalues, sign_normalize(eigenvectors)


def objective_matrix(X, L) -> np.ndarray:
    """Assemble the PFR objective matrix ``Xᵀ L X`` (row-sample convention).

    ``X`` has shape ``(n, m)`` and ``L`` shape ``(n, n)``; the result is the
    dense symmetric ``(m, m)`` matrix of Equation 7.
    """
    X = check_array(X, name="X")
    if L.shape[0] != X.shape[0]:
        raise ValidationError(
            f"L has {L.shape[0]} nodes but X has {X.shape[0]} samples"
        )
    L = sp.csr_matrix(L)
    if L.dtype != X.dtype:
        L = L.astype(X.dtype)
    M = X.T @ (L @ X)
    return 0.5 * (M + M.T)


def pairwise_loss(Z, W) -> float:
    """Pairwise embedding loss ``Σ_ij ||z_i - z_j||² W_ij`` (Equations 3–4).

    Evaluated through the Laplacian identity ``2·Tr(Zᵀ L Z)``, which is
    O(nnz·d) instead of O(n²·d).
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim == 1:
        Z = Z[:, None]
    W = sp.csr_matrix(W)
    if W.shape[0] != Z.shape[0]:
        raise ValidationError(
            f"W has {W.shape[0]} nodes but Z has {Z.shape[0]} rows"
        )
    degrees = np.asarray(W.sum(axis=0)).ravel()
    # Tr(Zᵀ L Z) = Σ_i d_i ||z_i||² - Σ_ij W_ij z_i·z_j
    sq_norms = np.sum(Z * Z, axis=1)
    cross = float(np.sum((W @ Z) * Z))
    return float(2.0 * (degrees @ sq_norms - cross))
