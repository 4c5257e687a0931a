"""Graph-Laplacian utilities (paper §3.3.2).

The PFR objective reduces to traces of ``Vᵀ X L Xᵀ V`` where ``L = D - W``
is the combinatorial Laplacian of a similarity or fairness graph and ``D``
is the diagonal matrix of column sums of ``W``. This module centralizes
Laplacian construction, validation, and the small pieces of spectral-graph
bookkeeping the experiments use (edge counts, density).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import check_symmetric
from ..exceptions import GraphConstructionError

__all__ = [
    "laplacian",
    "edge_count",
    "graph_density",
    "combine_laplacians",
]


def laplacian(W, *, normalized: bool = False) -> sp.csr_matrix:
    """Combinatorial (or symmetric-normalized) graph Laplacian ``L = D - W``.

    Parameters
    ----------
    W:
        Symmetric adjacency matrix, dense or sparse, non-negative weights.
    normalized:
        Return ``I - D^{-1/2} W D^{-1/2}`` instead (isolated vertices keep a
        zero row/column).

    Returns
    -------
    scipy.sparse.csr_matrix
        Sparse Laplacian; symmetric positive semi-definite by construction.
    """
    W = check_symmetric(W, name="W")
    if sp.issparse(W):
        if W.nnz and W.data.min() < 0:
            raise GraphConstructionError("adjacency weights must be non-negative")
        W = W.tocsr()
    else:
        if W.size and W.min() < 0:
            raise GraphConstructionError("adjacency weights must be non-negative")
        W = sp.csr_matrix(W)

    degrees = np.asarray(W.sum(axis=0)).ravel()
    if not normalized:
        return (sp.diags(degrees) - W).tocsr()

    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    D_inv_sqrt = sp.diags(inv_sqrt)
    # Match W's dtype: an integer fairness graph keeps its dtype here.
    identity_like = sp.diags((degrees > 0).astype(W.dtype))
    return (identity_like - D_inv_sqrt @ W @ D_inv_sqrt).tocsr()


def combine_laplacians(L_x, L_f, gamma: float, *, rescale: bool = False) -> sp.csr_matrix:
    """PFR's convex combination ``(1-γ) L_X + γ L_F`` (Equation 6).

    Parameters
    ----------
    L_x, L_f:
        Graph Laplacians of the data and fairness graphs.
    gamma:
        Trade-off in [0, 1].
    rescale:
        Divide each Laplacian by its mean diagonal (average degree) before
        combining. The two graphs can differ in edge mass by orders of
        magnitude (heat-kernel k-NN vs. dense equivalence-class cliques), in
        which case raw γ has no leverage; rescaling makes γ interpolate
        between graphs of comparable energy, matching the paper's smooth
        γ-sweeps (Figures 4, 7, 10). An all-zero Laplacian is left unscaled.
    """
    if not 0.0 <= gamma <= 1.0:
        raise GraphConstructionError(f"gamma must be in [0, 1]; got {gamma}")
    L_x = sp.csr_matrix(L_x)
    L_f = sp.csr_matrix(L_f)
    if L_x.shape != L_f.shape:
        raise GraphConstructionError(
            f"Laplacian shapes differ: {L_x.shape} vs {L_f.shape}"
        )
    if rescale:
        def normalized(L):
            mean_degree = L.diagonal().mean()
            return L / mean_degree if mean_degree > 0 else L

        L_x = normalized(L_x)
        L_f = normalized(L_f)
    return ((1.0 - gamma) * L_x + gamma * L_f).tocsr()


def edge_count(W) -> int:
    """Number of undirected edges (each counted once)."""
    W = check_symmetric(W, name="W")
    if not sp.issparse(W):
        W = sp.csr_matrix(W)
    off_diagonal = W.copy()
    off_diagonal.setdiag(0)
    off_diagonal.eliminate_zeros()
    return off_diagonal.nnz // 2


def graph_density(W) -> float:
    """Fraction of possible undirected edges that are present."""
    n = W.shape[0]
    if n < 2:
        return 0.0
    return edge_count(W) / (n * (n - 1) / 2.0)
