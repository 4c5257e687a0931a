"""Trace-minimization layer shared by linear and kernel PFR (paper §3.3.2–3.3.3).

Both PFR variants reduce to: find the ``d`` eigenvectors with smallest
eigenvalues of a symmetric positive semi-definite matrix

    linear PFR:  M = X ((1-γ) L_X + γ L_F) Xᵀ      (m × m, Equation 7)
    kernel PFR:  M = K ((1-γ) L_X + γ L_F) K        (n × n, Equation 8)

(using the paper's column-sample convention; this library stores samples as
rows, so the linear case is ``Xᵀ L X``). The paper solves this with LAPACK
via scipy; we expose several solvers behind one function, plus helpers to
assemble the objective matrix and to evaluate the pairwise loss
``Σ_ij ||z_i - z_j||² W_ij = 2·Tr(Zᵀ L Z)`` used by tests and benchmarks.

Eigensolvers
------------
``smallest_eigenvectors`` dispatches on ``solver=``:

==============  =========================  ===================================
solver          complexity (k×k matrix,    accuracy guarantee
                d eigenpairs)
==============  =========================  ===================================
``dense``       O(k³) LAPACK ``eigh``      Exact to machine precision (the
                with index subsetting      paper's choice). **Default** for
                                           dense / small inputs via ``auto``.
``sparse``      O(nnz·iters) Lanczos       Exact to ARPACK tolerance;
                ``eigsh`` on the shifted   ``auto`` picks it for large sparse
                operator                   inputs.
``lobpcg``      O(nnz·iters·d) block       Iterative, tolerance-bounded;
                preconditioned CG          supports the generalized ``B``
                                           problem natively. Falls back to
                                           ``dense`` when ``k`` is too small
                                           for a stable block (k < 5d+1).
``randomized``  O(nnz·q·(d+p)) subspace    Approximate: q power iterations on
                iteration + O(k·(d+p)²)    the reflected operator σI−M with
                Rayleigh–Ritz              seeded test matrix; accuracy gated
                                           by ``embedding_fidelity`` in the
                                           parity tests (≥0.99 on the seed
                                           datasets). No ``B`` support —
                                           generalized problems fall back to
                                           ``dense``.
==============  =========================  ===================================

All solvers preserve float32 input end-to-end (eigenvalues/eigenvectors come
back float32 — no silent float64 upcast); float64 and every other dtype use
float64 as before. The iterative solvers emit the ``eig.iterations``
histogram and every call bumps the ``eig.solve`` counter (labelled by
solver) in :mod:`repro.obs`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .._validation import check_array, check_symmetric
from ..exceptions import ValidationError
from ..obs.metrics import get_registry
from ..obs.trace import span

__all__ = [
    "EIG_SOLVERS",
    "smallest_eigenvectors",
    "objective_matrix",
    "pairwise_loss",
    "sign_normalize",
]

EIG_SOLVERS = ("auto", "dense", "sparse", "lobpcg", "randomized")


def _work_dtype(M) -> np.dtype:
    """float32 stays float32; everything else computes in float64."""
    dtype = getattr(M, "dtype", None)
    if dtype is not None and np.dtype(dtype) == np.dtype(np.float32):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def sign_normalize(V: np.ndarray) -> np.ndarray:
    """Fix eigenvector signs deterministically.

    Each column is flipped so its largest-magnitude entry is positive,
    making learned transforms reproducible across LAPACK builds and runs.
    float32 input stays float32.
    """
    V = np.array(V, dtype=_work_dtype(V), copy=True)
    if V.size == 0:
        return V
    # One vectorized pass: per-column pivot rows (first-max, like argmax in
    # the scalar loop), then flip every column whose pivot entry is negative.
    pivots = np.argmax(np.abs(V), axis=0)
    flip = V[pivots, np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    return V


def _lobpcg_smallest(M, d, *, B=None, seed=0, maxiter=500):
    """Smallest eigenpairs via LOBPCG; ``None`` signals the dense fallback.

    LOBPCG needs room for its block (X, residuals, conjugate directions):
    below ``k >= 5d+1`` scipy itself refuses, and tiny problems are faster
    dense anyway, so the caller falls back.
    """
    k = M.shape[0]
    if k < max(32, 5 * d + 1):
        return None
    work = _work_dtype(M)
    rng = np.random.default_rng(seed)
    X0 = rng.standard_normal((k, d)).astype(work, copy=False)
    eigenvalues, eigenvectors, history = spla.lobpcg(
        M, X0, B=B, largest=False, maxiter=maxiter,
        retResidualNormsHistory=True,
    )
    get_registry().observe("eig.iterations", float(len(history)), solver="lobpcg")
    order = np.argsort(eigenvalues)
    return eigenvalues[order], eigenvectors[:, order]


def _randomized_smallest(M, d, *, seed=0, oversample=10, n_iter=16):
    """Smallest eigenpairs via randomized subspace iteration.

    The smallest eigenvalues of PSD ``M`` are the *largest* of the
    reflected operator ``S = σI − M`` for any upper bound σ on the
    spectrum, so a standard randomized range finder with ``n_iter``
    power iterations plus a Rayleigh–Ritz projection recovers them.
    σ is a power-iteration estimate of λmax (padded 10%): a loose bound
    like Gershgorin would flatten S's spectral contrast and stall
    convergence. ``None`` signals the dense fallback for problems too
    small to benefit.
    """
    k = M.shape[0]
    p = min(k, d + oversample)
    if k < max(32, 2 * p):
        return None
    work = _work_dtype(M)
    rng_sigma = np.random.default_rng(seed)
    v = rng_sigma.standard_normal(k).astype(work, copy=False)
    lam_max = 1.0
    for _ in range(20):
        v = M @ v
        lam_max = float(np.linalg.norm(v))
        if lam_max == 0.0:
            break
        v /= lam_max
    sigma = 1.1 * lam_max + 1e-12

    def reflected(V):
        return sigma * V - M @ V

    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((k, p)).astype(work, copy=False)
    for _ in range(n_iter):
        Q, _ = np.linalg.qr(reflected(Q))
    SQ = reflected(Q)
    T = Q.T @ SQ
    theta, U = scipy.linalg.eigh(0.5 * (T + T.T))
    # Largest θ of S ↔ smallest eigenvalues of M; reversing the ascending
    # eigh output yields M's spectrum back in ascending order.
    theta = theta[::-1][:d]
    U = U[:, ::-1][:, :d]
    get_registry().observe("eig.iterations", float(n_iter), solver="randomized")
    return sigma - theta, Q @ U


def smallest_eigenvectors(
    M,
    d: int,
    *,
    B=None,
    solver: str = "auto",
    sparse_threshold: int = 2000,
    seed: int = 0,
):
    """Eigenvectors of the ``d`` smallest eigenvalues of a symmetric matrix.

    Parameters
    ----------
    M:
        Symmetric (dense or sparse) matrix of shape ``(k, k)``. float32
        input is solved in float32 (see the module docstring).
    d:
        Number of eigenpairs, ``1 <= d <= k``.
    B:
        Optional symmetric positive-definite matrix for the *generalized*
        problem ``M v = λ B v`` (used by PFR's ``ZZᵀ = I`` constraint mode,
        where ``B = Xᵀ X``). Solved dense unless ``solver="lobpcg"``, which
        handles ``B`` natively. Eigenvectors are B-orthonormal
        (``VᵀBV = I``).
    solver:
        One of ``"auto"``, ``"dense"``, ``"sparse"``, ``"lobpcg"``,
        ``"randomized"`` — see the complexity/accuracy table in the module
        docstring. ``"auto"`` picks sparse for large sparse inputs, dense
        otherwise (the historical default behavior).
    sparse_threshold:
        Matrix size above which ``"auto"`` prefers the Lanczos path for
        sparse inputs.
    seed:
        Seed for the iterative solvers' start blocks (``lobpcg``,
        ``randomized``); ignored by the deterministic solvers.

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
    if solver not in EIG_SOLVERS:
        raise ValidationError(f"unknown solver {solver!r}; use one of {EIG_SOLVERS}")
    work = _work_dtype(M)
    get_registry().inc("eig.solve", solver=solver)

    if B is not None:
        if solver == "lobpcg":
            with span("core.eig", solver="lobpcg", k=int(k), d=int(d),
                      dtype=str(work), generalized=True):
                result = _lobpcg_smallest(M, d, B=B, seed=seed)
            if result is not None:
                eigenvalues, eigenvectors = result
                return eigenvalues, sign_normalize(eigenvectors)
        # randomized has no generalized form; everything else (and the
        # too-small-for-LOBPCG case) takes the exact dense path.
        dense_m = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=work)
        dense_b = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=work)
        if dense_b.shape != dense_m.shape:
            raise ValidationError(
                f"B must match M's shape {dense_m.shape}; got {dense_b.shape}"
            )
        dense_m = 0.5 * (dense_m + dense_m.T)
        dense_b = 0.5 * (dense_b + dense_b.T)
        with span("core.eig", solver="dense", k=int(k), d=int(d),
                  dtype=str(work), generalized=True):
            eigenvalues, eigenvectors = scipy.linalg.eigh(
                dense_m, dense_b, subset_by_index=(0, d - 1)
            )
        return eigenvalues, sign_normalize(eigenvectors)

    if solver == "auto":
        use_sparse = sp.issparse(M) and k > sparse_threshold and d < k // 2
        solver = "sparse" if use_sparse else "dense"

    if solver in ("lobpcg", "randomized"):
        with span("core.eig", solver=solver, k=int(k), d=int(d), dtype=str(work)):
            if solver == "lobpcg":
                result = _lobpcg_smallest(M, d, seed=seed)
            else:
                result = _randomized_smallest(M, d, seed=seed)
        if result is None:
            return smallest_eigenvectors(M, d, solver="dense")
        eigenvalues, eigenvectors = result
        return eigenvalues, sign_normalize(eigenvectors)

    if solver == "dense":
        dense = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=work)
        # 0.5·(M + Mᵀ) in one temporary. It is exactly symmetric, so its
        # transpose (Fortran order, LAPACK's layout) holds the same values
        # and eigh can work in it in place instead of copying it.
        sym = np.add(dense, dense.T)
        sym *= 0.5
        sym = check_symmetric(sym, name="M", dtype=work)
        with span("core.eig", solver="dense", k=int(k), d=int(d), dtype=str(work)):
            eigenvalues, eigenvectors = scipy.linalg.eigh(
                sym.T, overwrite_a=True, subset_by_index=(0, d - 1)
            )
    else:
        if d >= k - 1:
            # Lanczos cannot return nearly-all eigenpairs; fall back to dense.
            return smallest_eigenvectors(M, d, solver="dense")
        if sp.issparse(M):
            matrix = M.tocsr()
            shift = float(abs(matrix).sum()) / k + 1.0
        else:
            matrix = np.asarray(M, dtype=work)
            shift = float(np.abs(matrix).sum()) / k + 1.0
        # Shift the PSD spectrum so smallest-magnitude = smallest-algebraic
        # and the operator is well-conditioned for Lanczos. The shift is
        # applied implicitly through a LinearOperator: materializing
        # ``matrix + shift·I`` would copy the whole operator (and, before
        # this, coerced dense inputs through an extra sparse conversion) —
        # at landmark/serving scale the matvec view keeps memory at the
        # operator's own footprint.
        operator = spla.LinearOperator(
            (k, k),
            matvec=lambda v: matrix @ v + shift * v,
            matmat=lambda V: matrix @ V + shift * V,
            rmatvec=lambda v: matrix.T @ v + shift * v,
            dtype=work,
        )
        with span("core.eig", solver="sparse", k=int(k), d=int(d), dtype=str(work)):
            eigenvalues, eigenvectors = spla.eigsh(operator, k=d, which="SA")
        eigenvalues = eigenvalues - shift
        order = np.argsort(eigenvalues)
        eigenvalues = eigenvalues[order]
        eigenvectors = eigenvectors[:, order]

    return eigenvalues, sign_normalize(eigenvectors)


def objective_matrix(X, L) -> np.ndarray:
    """Assemble the PFR objective matrix ``Xᵀ L X`` (row-sample convention).

    ``X`` has shape ``(n, m)`` and ``L`` shape ``(n, n)``; the result is the
    dense symmetric ``(m, m)`` matrix of Equation 7. float32 ``X`` yields a
    float32 objective (the float32 pipeline's assembly leg).
    """
    X = check_array(X, name="X", dtype=None)
    X = np.asarray(X, dtype=_work_dtype(X))
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
