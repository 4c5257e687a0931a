"""Individual-fairness measures (paper §4.1).

The paper quantifies individual fairness as the *consistency* of outcomes
between individuals connected in a similarity graph ``W``:

    Consistency = 1 - Σ_{i≠j} |ŷ_i - ŷ_j| · W_ij / Σ_{i≠j} W_ij

evaluated against both the data graph ``WX`` and the fairness graph ``WF``.
Consistency is 1 when every connected pair receives the same outcome and 0
when every connected pair disagrees maximally.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .._validation import check_symmetric, column_or_1d
from ..exceptions import ValidationError

__all__ = ["consistency", "restrict_graph"]


def consistency(y_pred, W) -> float:
    """Outcome consistency over the pairs connected in ``W``.

    Parameters
    ----------
    y_pred:
        Predicted outcomes per individual. Binary labels reproduce the
        paper's measure; continuous scores in [0, 1] are also accepted
        (soft consistency).
    W:
        Symmetric non-negative similarity adjacency of shape ``(n, n)``.

    Returns
    -------
    float
        Consistency in [0, 1]. By convention an *empty* graph yields 1.0
        (no constraints to violate).
    """
    return _consistency_from_edges(y_pred, _consistency_edges(W))


class _Edges(NamedTuple):
    """The off-diagonal edges of a similarity graph, ready for scoring."""

    n_nodes: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    total: float
    negative: bool


def _consistency_edges(W) -> _Edges:
    """Validate ``W`` and extract the edges :func:`consistency` scores.

    Scoring many predictions against one graph prepares it once here and
    then calls :func:`_consistency_from_edges` per prediction.
    """
    W = sp.coo_matrix(check_symmetric(W, name="W"))
    off_diag = W.row != W.col
    weights = W.data[off_diag]
    return _Edges(
        n_nodes=W.shape[0],
        rows=W.row[off_diag],
        cols=W.col[off_diag],
        weights=weights,
        total=weights.sum(),
        negative=bool(weights.size and weights.min() < 0),
    )


def _consistency_from_edges(y_pred, edges: _Edges) -> float:
    """:func:`consistency` against a graph prepared by
    :func:`_consistency_edges`."""
    y = column_or_1d(y_pred, name="y_pred", dtype=np.float64)
    if np.any(y < 0) or np.any(y > 1):
        raise ValidationError("y_pred entries must lie in [0, 1]")
    if edges.n_nodes != len(y):
        raise ValidationError(
            f"W has {edges.n_nodes} nodes but y_pred has {len(y)} entries"
        )
    if edges.total == 0:
        return 1.0
    if edges.negative:
        raise ValidationError("W must be non-negative")
    disagreements = np.abs(y[edges.rows] - y[edges.cols])
    return float(1.0 - (disagreements @ edges.weights) / edges.total)


def restrict_graph(W, indices) -> sp.csr_matrix:
    """Sub-graph of ``W`` induced by ``indices`` (e.g. the test split).

    Consistency on held-out data is computed on the test×test block of a
    graph built over the full dataset; this helper extracts that block
    while preserving sparsity.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValidationError(f"indices must be 1-D; got shape {indices.shape}")
    W = sp.csr_matrix(W)
    if indices.size and (indices.min() < 0 or indices.max() >= W.shape[0]):
        raise ValidationError(
            f"indices must be in [0, {W.shape[0] - 1}]"
        )
    return W[indices][:, indices].tocsr()
