"""Fairness-graph diagnostics.

Before trusting a fairness graph, one wants to know: how many judgments
does it encode, how sparse is it, does it actually couple the groups it is
supposed to couple, and how fragmented is it? :func:`graph_summary` answers
those in one call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import check_symmetric, column_or_1d
from ..exceptions import GraphConstructionError
from .laplacian import edge_count, graph_density, n_connected_components

__all__ = ["graph_summary"]


def graph_summary(W, *, groups=None) -> dict:
    """One-call diagnostics of a similarity or fairness graph.

    Parameters
    ----------
    W:
        Symmetric adjacency (dense or sparse).
    groups:
        Optional protected-group labels; adds the cross-group edge
        fraction (a between-group quantile graph must report 1.0, an
        equivalence-class graph typically something in between).

    Returns
    -------
    dict
        ``n_nodes``, ``n_edges``, ``density``, ``n_components``,
        ``n_isolated``, ``mean_degree``, ``max_degree`` and, when groups
        are given, ``cross_group_fraction``.
    """
    W = check_symmetric(W, name="W")
    if not sp.issparse(W):
        W = sp.csr_matrix(W)
    n = W.shape[0]
    degrees = np.asarray((W != 0).sum(axis=1)).ravel()
    summary = {
        "n_nodes": int(n),
        "n_edges": edge_count(W),
        "density": graph_density(W),
        "n_components": n_connected_components(W),
        "n_isolated": int(np.sum(degrees == 0)),
        "mean_degree": float(degrees.mean()) if n else 0.0,
        "max_degree": int(degrees.max()) if n else 0,
    }
    if groups is not None:
        groups = column_or_1d(groups, name="groups")
        if len(groups) != n:
            raise GraphConstructionError(
                f"groups has {len(groups)} entries for {n} nodes"
            )
        coo = sp.triu(W, k=1).tocoo()
        if coo.nnz:
            cross = float(np.mean(groups[coo.row] != groups[coo.col]))
        else:
            cross = float("nan")
        summary["cross_group_fraction"] = cross
    return summary
