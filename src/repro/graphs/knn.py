"""k-nearest-neighbor similarity graph ``WX`` (paper §3.1).

The paper defines the data-driven similarity graph as

    WX_ij = exp(-||xi - xj||² / t)   if xi ∈ Np(xj) or xj ∈ Np(xi), else 0

where ``Np`` is the set of p nearest neighbors in euclidean space computed
*excluding the protected attributes*, and ``t`` is a scalar bandwidth
hyper-parameter. The graph is symmetric by construction (the OR rule) and
stored sparse so the COMPAS-scale datasets (n ≈ 9000) stay cheap.

Neighbors are exact: a cKDTree selects them, and each selected pair's
weight comes from one canonical distance kernel
(:func:`_selected_sq_distances`), so the graph's bytes do not depend on
how scipy vectorized the tree's own distance arithmetic. Everything is
computed in float64.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .._validation import check_array
from ..exceptions import GraphConstructionError, ValidationError
from ..obs.metrics import get_registry
from ..obs.trace import span

__all__ = [
    "knn_graph",
    "knn_cross",
    "pairwise_sq_distances",
    "median_heuristic",
    "resolve_bandwidth",
]


def pairwise_sq_distances(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of squared euclidean distances between rows of X and Y.

    Uses the expansion ``||x-y||² = ||x||² + ||y||² - 2 x·y`` with clipping
    at zero to absorb floating-point cancellation, computed in float64.

    The Gram matrix ``X Yᵀ`` is doubled in place and subtracted in place
    from ``||x||² + ||y||²``, so at most two ``(n, m)`` arrays are alive at
    once; the elementwise ops run in the expansion's order, so the values
    are exactly those of evaluating the expansion term by term. With ``Y`` omitted the matrix is exactly
    symmetric (``X Xᵀ`` is), which :func:`median_heuristic` relies on.
    """
    X = np.asarray(X)
    Y = X if Y is None else np.asarray(Y)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    return _sq_distances_to(X, Y, _sq_norms(Y))


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared euclidean norm of each row of a float64 matrix."""
    return np.sum(X * X, axis=1)


def _sq_distances_to(X: np.ndarray, Y: np.ndarray, y_sq: np.ndarray) -> np.ndarray:
    """:func:`pairwise_sq_distances` of float64 ``X`` and ``Y``, given
    ``y_sq = _sq_norms(Y)``.

    A caller measuring many batches against one fixed ``Y`` (a served
    model's ``X_fit_``) computes ``y_sq`` once; the values are the same
    bits either way.
    """
    gram = X @ Y.T
    gram *= 2.0
    d = _sq_norms(X)[:, None] + y_sq[None, :]
    d -= gram
    np.maximum(d, 0.0, out=d)
    return d


def median_heuristic(X: np.ndarray, *, sample_size: int = 2000, seed: int = 0) -> float:
    """Median of pairwise squared distances — a standard heat-kernel bandwidth.

    For large n the median is estimated on a random subsample so the cost
    stays O(sample_size²).

    The result is exact: bit for bit ``np.median`` over the off-diagonal
    entries of :func:`pairwise_sq_distances`. Because that matrix
    is exactly symmetric, the off-diagonal multiset is its upper triangle
    counted twice, so the median is taken from the ``n(n-1)/2`` upper
    entries alone with one partition. Memory: the ``n × n`` Gram matrix
    plus an ``n(n-1)/2`` buffer — about ``1.5·n²`` float64 values, with
    no distance matrix, mask or off-diagonal copy.

    Raises
    ------
    ValidationError
        Fewer than two rows: the median needs at least one pairwise
        distance.
    """
    X = check_array(X, name="X")
    n = X.shape[0]
    if n > sample_size:
        rng = np.random.default_rng(seed)
        X = X[rng.choice(n, size=sample_size, replace=False)]
        n = X.shape[0]
    if n < 2:
        raise ValidationError(
            f"cannot resolve a heat-kernel bandwidth from {n} row(s); the "
            "median heuristic needs at least two. Pass bandwidth= explicitly"
        )
    sq = np.sum(X * X, axis=1)
    gram = X @ X.T
    gram *= 2.0
    # Row i of the upper triangle, j > i: (sq_i + sq_j) - 2·G_ij, exactly
    # the entries pairwise_sq_distances computes there.
    upper = np.empty(n * (n - 1) // 2, dtype=X.dtype)
    start = 0
    for i in range(n - 1):
        row = upper[start:start + n - 1 - i]
        np.add(sq[i], sq[i + 1:], out=row)
        np.subtract(row, gram[i, i + 1:], out=row)
        start += row.size
    np.maximum(upper, 0.0, out=upper)
    # The doubled multiset's middle ranks M-1 and M (M = n(n-1)/2) are the
    # upper triangle's ranks (M-1)//2 and M//2.
    size = upper.size
    upper.partition(size // 2)
    high = upper[size // 2]
    low = high if size % 2 else upper[: size // 2].max()
    median = float(np.mean(np.array([low, high], dtype=X.dtype)))
    if median <= 0.0:
        # All points coincide; any positive bandwidth yields the same graph.
        return 1.0
    return median


def _distance_view(X: np.ndarray, exclude) -> np.ndarray:
    """Columns entering the neighborhood distances (protected ones dropped)."""
    if exclude is None:
        return X
    exclude = np.asarray(exclude, dtype=int)
    width = X.shape[1]
    outside = exclude[(exclude < 0) | (exclude >= width)]
    if outside.size:
        raise GraphConstructionError(
            f"exclude columns {outside.tolist()} are out of range for "
            f"{width} feature columns"
        )
    keep = np.setdiff1d(np.arange(width), exclude)
    if keep.size == 0:
        raise GraphConstructionError("exclude removes every feature column")
    return X[:, keep]


def resolve_bandwidth(X_ref, bandwidth=None, *, exclude=None) -> float:
    """Heat-kernel bandwidth ``t`` for edges into the reference rows ``X_ref``.

    An explicit ``bandwidth`` is validated and returned. ``None`` selects
    :func:`median_heuristic` over the distance-relevant columns of
    ``X_ref`` — an O(r²) pass over the ``r`` reference rows, bitwise the
    median :func:`knn_graph` and :func:`knn_cross` take when they are
    given ``bandwidth=None``. Callers
    that weight many query batches against one fixed reference set (the
    landmark plans of :mod:`repro.core.approx`, the drift scorer of
    :mod:`repro.lifecycle`) resolve it once and pass it explicitly.

    Raises
    ------
    ValidationError
        ``bandwidth=None`` with fewer than two reference rows: the median
        needs at least one pairwise distance.
    GraphConstructionError
        A non-positive ``bandwidth``, or ``exclude`` naming a column
        outside ``X_ref`` or dropping every column.
    """
    if bandwidth is None:
        X_ref = check_array(X_ref, name="X_ref")
        bandwidth = median_heuristic(
            np.ascontiguousarray(_distance_view(X_ref, exclude))
        )
    if bandwidth <= 0:
        raise GraphConstructionError(f"bandwidth must be positive; got {bandwidth}")
    return bandwidth


def _edge_weights(
    sq_distances: np.ndarray, bandwidth: float, binary: bool
) -> np.ndarray:
    """Heat-kernel (or 0/1) weights for a batch of squared distances."""
    if binary:
        return np.ones_like(sq_distances)
    return np.exp(-sq_distances / sq_distances.dtype.type(bandwidth))


def _selected_sq_distances(
    view: np.ndarray, neighbors: np.ndarray, ref_view: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances for pre-selected (row, neighbor) pairs.

    This is the *canonical* weight arithmetic for the selected pairs: a
    strictly sequential per-feature sum of squared differences, then
    ``sqrt(acc) ** 2``. It makes each pair's weight independent of how
    scipy's compiled distance kernels were vectorized (cKDTree's
    accumulation order varies with SIMD width for m >= 8, so its raw
    distances are not a stable reference).
    """
    ref = view if ref_view is None else ref_view
    acc = np.zeros(neighbors.shape, dtype=view.dtype)
    for j in range(view.shape[1]):
        delta = view[:, j][:, None] - ref[:, j][neighbors]
        acc += delta * delta
    # sqrt-then-square keeps each weight bitwise `tree.query(...)[0] ** 2`,
    # the arithmetic every stored graph digest was computed with.
    return np.sqrt(acc) ** 2


def _neighbors_exact(view: np.ndarray, k: int) -> np.ndarray:
    """Exact k-NN indices (self excluded by *index*) via cKDTree.

    Returns ``neighbors`` of shape ``(n, k)``. Querying ``k+1`` and
    dropping the self *column position* is wrong under duplicate rows —
    the tree may list a coincident neighbor first and the old positional
    drop silently removed a real neighbor — so the self match is located
    by index; rows where duplicates crowded the self match out of the
    ``k+1`` set drop the farthest entry instead. The tree is used for
    selection only; weights come from :func:`_selected_sq_distances`.
    """
    # Imported here: scipy.spatial costs ~0.1 s, and loading or serving a
    # fitted model (repro serve) builds no tree.
    from scipy.spatial import cKDTree

    n = view.shape[0]
    tree = cKDTree(view)
    _, neighbors = tree.query(view, k=k + 1)
    self_mask = neighbors == np.arange(n)[:, None]
    keep = ~self_mask
    # Rows whose k+1 nearest are all coincident duplicates may not contain
    # the row itself; drop their farthest (last) entry to get back to k.
    no_self = ~self_mask.any(axis=1)
    keep[no_self, -1] = False
    return neighbors[keep].reshape(n, k)


def knn_graph(
    X,
    *,
    n_neighbors: int = 10,
    bandwidth: float | None = None,
    exclude: np.ndarray | list | None = None,
    binary: bool = False,
) -> sp.csr_matrix:
    """Build the symmetric k-NN heat-kernel graph ``WX`` of the paper.

    Parameters
    ----------
    X:
        Feature matrix of shape ``(n, m)``.
    n_neighbors:
        Number of nearest neighbors ``p`` per point (self excluded).
    bandwidth:
        Heat-kernel scalar ``t``; ``None`` selects the median heuristic on
        the distance-relevant columns.
    exclude:
        Column indices to drop before computing distances — the paper
        excludes the protected attributes from ``Np``.
    binary:
        Use 0/1 edge weights instead of the heat kernel (useful for
        ablations).

    Returns
    -------
    scipy.sparse.csr_matrix
        Symmetric ``(n, n)`` adjacency with zero diagonal.
    """
    X = check_array(X, name="X", min_samples=2)
    n = X.shape[0]
    if not 1 <= n_neighbors < n:
        raise GraphConstructionError(
            f"n_neighbors must be in [1, n-1] = [1, {n - 1}]; got {n_neighbors}"
        )

    distance_view = np.ascontiguousarray(_distance_view(X, exclude))
    bandwidth = resolve_bandwidth(distance_view, bandwidth)

    with span("graphs.knn", n=int(n), k=int(n_neighbors)):
        get_registry().inc("knn.build")
        neighbors = _neighbors_exact(distance_view, n_neighbors)
        sq_distances = _selected_sq_distances(distance_view, neighbors)
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = neighbors.ravel()
    weights = _edge_weights(sq_distances.ravel(), bandwidth, binary)

    W = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    # Symmetrize with the OR rule: keep an edge if either endpoint lists the
    # other as a neighbor; maximum() avoids double-counting mutual edges.
    W = W.maximum(W.T)
    W.setdiag(0.0)
    W.eliminate_zeros()
    return W.tocsr()


def knn_cross(
    X_query,
    X_ref,
    *,
    n_neighbors: int = 10,
    bandwidth: float | None = None,
    exclude: np.ndarray | list | None = None,
    binary: bool = False,
) -> sp.csr_matrix:
    """Cross-set k-NN heat-kernel weights from query rows to reference rows.

    The rectangular analogue of :func:`knn_graph`: row ``i`` of the result
    holds heat-kernel weights ``exp(-||q_i - r_j||² / t)`` on the
    ``n_neighbors`` reference rows nearest to query ``i`` and zeros
    elsewhere. This is the landmark → query edge set the Nyström
    out-of-sample extension uses (:mod:`repro.core.approx`): an unseen
    individual is connected to its nearest landmarks exactly the way
    training individuals connect to each other in ``WX``.

    Unlike :func:`knn_graph` the result is *not* symmetrized (it is not
    square) and there is no self-edge to drop — query and reference sets
    are distinct; a query row that coincides with a reference row keeps its
    weight-1 edge.

    Parameters
    ----------
    X_query:
        Query rows of shape ``(q, m)``.
    X_ref:
        Reference rows of shape ``(r, m)`` (the landmarks).
    n_neighbors:
        Neighbors per query row, ``1 <= n_neighbors <= r``.
    bandwidth:
        Heat-kernel scalar ``t``; ``None`` selects the median heuristic on
        the reference rows so query-side batches cannot shift the scale.
        That re-runs an O(r²) median over ``X_ref`` on *every* call:
        callers scoring repeatedly against a fixed reference set should
        resolve it once with :func:`resolve_bandwidth` and pass it here.
    exclude:
        Column indices to drop before computing distances (the paper
        excludes protected attributes from ``Np``).
    binary:
        Use 0/1 edge weights instead of the heat kernel.

    Returns
    -------
    scipy.sparse.csr_matrix
        ``(q, r)`` matrix with exactly ``n_neighbors`` non-negative entries
        per row (fewer only when heat-kernel weights underflow to zero).
    """
    X_query = check_array(X_query, name="X_query")
    X_ref = check_array(X_ref, name="X_ref")
    if X_query.shape[1] != X_ref.shape[1]:
        raise GraphConstructionError(
            f"X_query has {X_query.shape[1]} features but X_ref has "
            f"{X_ref.shape[1]}"
        )
    q, r = X_query.shape[0], X_ref.shape[0]
    if not 1 <= n_neighbors <= r:
        raise GraphConstructionError(
            f"n_neighbors must be in [1, n_ref] = [1, {r}]; got {n_neighbors}"
        )

    query_view = np.ascontiguousarray(_distance_view(X_query, exclude))
    ref_view = np.ascontiguousarray(_distance_view(X_ref, exclude))
    bandwidth = resolve_bandwidth(ref_view, bandwidth)

    from scipy.spatial import cKDTree

    with span("graphs.knn_cross", q=int(q), r=int(r), k=int(n_neighbors)):
        get_registry().inc("knn.build")
        tree = cKDTree(ref_view)
        _, neighbors = tree.query(query_view, k=n_neighbors)
        if n_neighbors == 1:  # cKDTree squeezes the k axis for k=1
            neighbors = neighbors[:, None]
        sq_distances = _selected_sq_distances(
            query_view, neighbors, ref_view=ref_view
        )
    rows = np.repeat(np.arange(q), n_neighbors)
    cols = neighbors.ravel()
    weights = _edge_weights(sq_distances.ravel(), bandwidth, binary)

    W = sp.csr_matrix((weights, (rows, cols)), shape=(q, r))
    W.eliminate_zeros()
    return W
