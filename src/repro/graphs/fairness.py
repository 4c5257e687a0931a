"""Fairness-graph construction (paper §3.2).

Two constructions are provided, matching the paper's two elicitation
regimes:

* :func:`equivalence_class_graph` — **comparable individuals** (§3.2.1,
  Definition 1): an edge joins two individuals iff they belong to the same
  equivalence class (elicited similarity judgment / rounded star rating).
* :func:`between_group_quantile_graph` — **incomparable individuals**
  (§3.2.2, Definitions 2–3): individuals are ranked within their own group;
  an edge joins individuals of *different* groups whose within-group ranks
  fall in the same quantile.

Both return sparse symmetric binary adjacency matrices with zero diagonal.
A :func:`pairwise_judgment_graph` helper turns raw elicited pairs into the
same representation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import column_or_1d
from ..exceptions import GraphConstructionError
from .quantiles import within_group_quantiles

__all__ = [
    "equivalence_class_graph",
    "between_group_quantile_graph",
    "pairwise_judgment_graph",
]


def _finalize(W: sp.spmatrix, n: int) -> sp.csr_matrix:
    W = W.tocsr()
    W = W.maximum(W.T)
    W.setdiag(0.0)
    W.eliminate_zeros()
    W.data[:] = 1.0
    return W


def equivalence_class_graph(classes, *, mask=None) -> sp.csr_matrix:
    """Fairness graph over equivalence classes (Definition 1).

    Parameters
    ----------
    classes:
        Equivalence-class label per individual (any hashable values),
        shape ``(n,)``.
    mask:
        Optional boolean array: ``False`` marks individuals with no
        elicited judgment (e.g. communities without niche.com reviews);
        they receive no edges, keeping the graph sparse as in the paper.

    Returns
    -------
    scipy.sparse.csr_matrix
        Binary symmetric adjacency: ``W_ij = 1`` iff ``[x_i] == [x_j]``.
    """
    classes = column_or_1d(classes, name="classes")
    n = len(classes)
    if mask is not None:
        mask = column_or_1d(mask, name="mask").astype(bool)
        if len(mask) != n:
            raise GraphConstructionError(
                f"mask length {len(mask)} does not match classes length {n}"
            )
    else:
        mask = np.ones(n, dtype=bool)

    rows, cols = [], []
    eligible = np.flatnonzero(mask)
    eligible_classes = classes[eligible]
    for value in np.unique(eligible_classes):
        members = eligible[eligible_classes == value]
        if len(members) < 2:
            continue
        # Complete subgraph on the class, upper triangle only.
        r, c = np.triu_indices(len(members), k=1)
        rows.append(members[r])
        cols.append(members[c])

    if not rows:
        return sp.csr_matrix((n, n))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    W = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return _finalize(W, n)


def between_group_quantile_graph(
    scores,
    groups,
    *,
    n_quantiles: int = 10,
    mask=None,
) -> sp.csr_matrix:
    """Between-group quantile fairness graph (Definitions 2–3).

    Individuals are bucketed into ``n_quantiles`` quantiles *within their
    own group* (anti-subordination: raw scores are never compared across
    groups), then every pair of individuals from *different* groups sharing
    a bucket is connected. With two groups the result is bipartite per
    bucket, exactly as the paper describes.

    Parameters
    ----------
    scores:
        Within-group ranking scores (e.g. COMPAS decile scores), shape (n,).
    groups:
        Group membership per individual, shape (n,).
    n_quantiles:
        Number of quantile buckets ``q``.
    mask:
        Optional boolean array selecting the individuals with elicited
        side-information; others receive no edges.

    Returns
    -------
    scipy.sparse.csr_matrix
        Binary symmetric adjacency with ``W_ij = 1`` iff the individuals
        belong to different groups and the same within-group quantile.
    """
    scores = column_or_1d(scores, name="scores", dtype=np.float64)
    groups = column_or_1d(groups, name="groups")
    n = len(scores)
    if len(groups) != n:
        raise GraphConstructionError(
            f"scores and groups must align; got {n} vs {len(groups)}"
        )
    if mask is not None:
        mask = column_or_1d(mask, name="mask").astype(bool)
        if len(mask) != n:
            raise GraphConstructionError(f"mask length {len(mask)} != {n}")
    else:
        mask = np.ones(n, dtype=bool)

    if len(np.unique(groups[mask])) < 2:
        raise GraphConstructionError(
            "between-group quantile graph needs at least two groups with judgments"
        )

    buckets = np.full(n, -1, dtype=np.int64)
    eligible = np.flatnonzero(mask)
    buckets[eligible] = within_group_quantiles(
        scores[eligible], groups[eligible], n_quantiles
    )

    rows, cols = [], []
    for bucket in range(n_quantiles):
        in_bucket = np.flatnonzero(buckets == bucket)
        if len(in_bucket) < 2:
            continue
        bucket_groups = groups[in_bucket]
        for value in np.unique(bucket_groups):
            own = in_bucket[bucket_groups == value]
            other = in_bucket[bucket_groups != value]
            if len(own) == 0 or len(other) == 0:
                continue
            # Emit each cross-group pair once (own < other index ordering
            # would double-emit across group iterations; _finalize dedups).
            r = np.repeat(own, len(other))
            c = np.tile(other, len(own))
            keep = r < c
            rows.append(r[keep])
            cols.append(c[keep])

    if not rows:
        return sp.csr_matrix((n, n))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    W = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return _finalize(W, n)


def pairwise_judgment_graph(pairs, n: int) -> sp.csr_matrix:
    """Fairness graph from raw elicited pairs (§3.2.1, binary judgments).

    Parameters
    ----------
    pairs:
        Iterable of ``(i, j)`` index pairs judged "equally deserving".
    n:
        Number of individuals.
    """
    pairs = np.asarray(list(pairs), dtype=np.int64)
    if pairs.size == 0:
        return sp.csr_matrix((n, n))
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphConstructionError(f"pairs must have shape (k, 2); got {pairs.shape}")
    if pairs.min() < 0 or pairs.max() >= n:
        raise GraphConstructionError(f"pair indices must be in [0, {n - 1}]")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise GraphConstructionError("self-pairs (i, i) are not valid judgments")
    W = sp.csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    return _finalize(W, n)
