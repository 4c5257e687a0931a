"""k-nearest-neighbor similarity graph ``WX`` (paper §3.1).

The paper defines the data-driven similarity graph as

    WX_ij = exp(-||xi - xj||² / t)   if xi ∈ Np(xj) or xj ∈ Np(xi), else 0

where ``Np`` is the set of p nearest neighbors in euclidean space computed
*excluding the protected attributes*, and ``t`` is a scalar bandwidth
hyper-parameter. The graph is symmetric by construction (the OR rule) and
stored sparse so the COMPAS-scale datasets (n ≈ 9000) stay cheap.

Neighbor-search backends
------------------------
:func:`knn_graph` and :func:`knn_cross` accept a ``backend=`` selector so
the construction cost can be traded against exactness at scale:

===========  ==========================  =========================================
backend      complexity (n rows, f dims) accuracy guarantee
===========  ==========================  =========================================
``exact``    cKDTree — O(n log n) for    Exact neighbors. **Default.** The tree
             small f, degrades toward    degrades to near-brute-force for f ≳ 15
             O(n²·f) as f grows          (measured quadratic at f = 24).
``blocked``  O(n²·f) BLAS, O(block·n)    Exact neighbors (identical graph to
             memory                      ``exact`` on tie-free data, bitwise).
                                         Wins over the tree for f ≳ 20 and on
                                         float32 inputs; memory-bounded.
``lsh``      O(n·(T·b + T·k·f)) with T   Approximate: seeded random-hyperplane
             tables of average bucket    LSH; recall rises with
             size b                      ``n_tables``/``n_bits`` (the measured
                                         recall knob) and every deficient row
                                         falls back to an exact scan, so each
                                         row always has ``k`` neighbors.
===========  ==========================  =========================================

All backends share one distance kernel for the selected pairs, so on
tie-free data ``exact`` and ``blocked`` produce byte-identical graphs and
``lsh`` differs only where its candidate set misses a true neighbor.
Passing ``dtype=np.float32`` keeps the whole construction (distances,
weights, the returned CSR data) in float32 — no silent float64 upcast —
which halves memory traffic and roughly doubles BLAS throughput on the
``blocked``/``lsh`` paths.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .._validation import check_array
from ..exceptions import GraphConstructionError, ValidationError
from ..obs.metrics import get_registry
from ..obs.trace import span

__all__ = [
    "KNN_BACKENDS",
    "knn_graph",
    "knn_cross",
    "pairwise_sq_distances",
    "median_heuristic",
    "resolve_bandwidth",
]

KNN_BACKENDS = ("exact", "blocked", "lsh")

# Soft cap on the per-block scratch matrix of the blocked backend
# (entries, not bytes): 2e7 float64 entries ≈ 160 MB.
_BLOCK_ENTRIES = int(2e7)


def pairwise_sq_distances(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of squared euclidean distances between rows of X and Y.

    Uses the expansion ``||x-y||² = ||x||² + ||y||² - 2 x·y`` with clipping
    at zero to absorb floating-point cancellation. float32 inputs are
    computed in (and returned as) float32 — the arithmetic dtype of the
    opt-in float32 pipeline; every other dtype is upcast to float64. When
    both ``X`` and ``Y`` are given they must already agree on dtype for
    the float32 path to engage.

    The Gram matrix ``X Yᵀ`` is doubled in place and subtracted in place
    from ``||x||² + ||y||²``, so at most two ``(n, m)`` arrays are alive at
    once; the elementwise ops run in the expansion's order, so the values
    are exactly those of evaluating the expansion term by term. With ``Y`` omitted the matrix is exactly
    symmetric (``X Xᵀ`` is), which :func:`median_heuristic` relies on.
    """
    X = np.asarray(X)
    Y = X if Y is None else np.asarray(Y)
    if X.dtype == np.float32 and Y.dtype == np.float32:
        work = np.float32
    else:
        work = np.float64
    X = np.asarray(X, dtype=work)
    Y = np.asarray(Y, dtype=work)
    x_sq = np.sum(X * X, axis=1)[:, None]
    y_sq = np.sum(Y * Y, axis=1)[None, :]
    gram = X @ Y.T
    gram *= 2.0
    d = x_sq + y_sq
    d -= gram
    np.maximum(d, 0.0, out=d)
    return d


def median_heuristic(X: np.ndarray, *, sample_size: int = 2000, seed: int = 0) -> float:
    """Median of pairwise squared distances — a standard heat-kernel bandwidth.

    For large n the median is estimated on a random subsample so the cost
    stays O(sample_size²).

    The result is exact: bit for bit ``np.median`` over the off-diagonal
    entries of :func:`pairwise_sq_distances`, in the input's dtype
    (float32 stays float32, anything else is float64). Because that matrix
    is exactly symmetric, the off-diagonal multiset is its upper triangle
    counted twice, so the median is taken from the ``n(n-1)/2`` upper
    entries alone with one partition. Memory: the ``n × n`` Gram matrix
    plus an ``n(n-1)/2`` buffer — about ``1.5·n²`` values of the work
    dtype, with no distance matrix, mask or off-diagonal copy.

    Raises
    ------
    ValidationError
        Fewer than two rows: the median needs at least one pairwise
        distance.
    """
    X = check_array(X, name="X", dtype=None if np.asarray(X).dtype == np.float32 else np.float64)
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
    keep = np.setdiff1d(np.arange(X.shape[1]), np.asarray(exclude, dtype=int))
    if keep.size == 0:
        raise GraphConstructionError("exclude removes every feature column")
    return X[:, keep]


def resolve_bandwidth(X_ref, bandwidth=None, *, exclude=None, dtype=None) -> float:
    """Heat-kernel bandwidth ``t`` for edges into the reference rows ``X_ref``.

    An explicit ``bandwidth`` is validated and returned. ``None`` selects
    :func:`median_heuristic` over the distance-relevant columns of
    ``X_ref`` cast to ``dtype`` (``None`` = float64) — an O(r²) pass over
    the ``r`` reference rows, bitwise the median :func:`knn_graph` and
    :func:`knn_cross` take when they are given ``bandwidth=None``. Callers
    that weight many query batches against one fixed reference set (the
    landmark plans of :mod:`repro.core.approx`, the drift scorer of
    :mod:`repro.lifecycle`) resolve it once and pass it explicitly.

    Raises
    ------
    ValidationError
        ``bandwidth=None`` with fewer than two reference rows: the median
        needs at least one pairwise distance.
    GraphConstructionError
        A non-positive ``bandwidth``, or ``exclude`` dropping every column.
    """
    if bandwidth is None:
        X_ref = _as_dtype(check_array(X_ref, name="X_ref", dtype=None), dtype)
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


def _check_backend(backend: str, options: dict | None) -> dict:
    if backend not in KNN_BACKENDS:
        raise GraphConstructionError(
            f"unknown k-NN backend {backend!r}; use one of {KNN_BACKENDS}"
        )
    options = dict(options or {})
    known = {"seed", "n_tables", "n_bits", "recall_sample", "block_entries"}
    unknown = sorted(set(options) - known)
    if unknown:
        raise GraphConstructionError(
            f"unknown backend option(s) {unknown}; known: {sorted(known)}"
        )
    return options


def _as_dtype(X: np.ndarray, dtype) -> np.ndarray:
    """Resolve the working dtype: ``None`` keeps the historical float64."""
    if dtype is None:
        return np.asarray(X, dtype=np.float64)
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise GraphConstructionError(
            f"dtype must be float32 or float64; got {dtype}"
        )
    return np.asarray(X, dtype=dtype)


def _selected_sq_distances(
    view: np.ndarray, neighbors: np.ndarray, rows: np.ndarray | None = None,
    ref_view: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distances for pre-selected (row, neighbor) pairs.

    This is the *canonical* weight arithmetic every backend routes its
    selected pairs through: a strictly sequential per-feature sum of
    squared differences, then ``sqrt(acc) ** 2``. Backends may pick
    neighbors however they like (KD-tree, BLAS blocks, LSH buckets) but
    the weight attached to a given pair is byte-identical across all of
    them — and independent of how scipy's compiled distance kernels were
    vectorized (cKDTree's accumulation order varies with SIMD width for
    m >= 8, so its raw distances are not a stable reference).
    """
    ref = view if ref_view is None else ref_view
    base = view if rows is None else view[rows]
    acc = np.zeros(neighbors.shape, dtype=view.dtype)
    for j in range(view.shape[1]):
        delta = base[:, j][:, None] - ref[:, j][neighbors]
        acc += delta * delta
    # sqrt-then-square mirrors `tree.query(...)[0] ** 2`; without it the
    # backends would disagree with `exact` in the last ulp.
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


def _blocked_topk(
    view: np.ndarray,
    ref_view: np.ndarray,
    k: int,
    *,
    exclude_self: bool,
    block_entries: int,
) -> np.ndarray:
    """Neighbor indices via chunked brute-force distances (BLAS path)."""
    n, r = view.shape[0], ref_view.shape[0]
    block = max(1, int(block_entries) // max(r, 1))
    ref_sq = np.sum(ref_view * ref_view, axis=1)[None, :]
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(n, start + block)
        chunk = view[start:stop]
        d = (
            np.sum(chunk * chunk, axis=1)[:, None]
            + ref_sq
            - 2.0 * (chunk @ ref_view.T)
        )
        if exclude_self:
            d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        idx = np.argpartition(d, min(k, r - 1), axis=1)[:, :k]
        # argpartition order is arbitrary; sort each row by distance so the
        # selection (and the resulting graph) is deterministic.
        order = np.argsort(np.take_along_axis(d, idx, axis=1), axis=1, kind="stable")
        out[start:stop] = np.take_along_axis(idx, order, axis=1)
    return out


def _lsh_codes(view: np.ndarray, projections: np.ndarray) -> np.ndarray:
    """Pack sign bits of random-hyperplane projections into int64 codes."""
    bits = (view @ projections) > 0
    weights = (1 << np.arange(projections.shape[1], dtype=np.int64))
    return bits @ weights


def _lsh_candidates(
    view: np.ndarray,
    ref_view: np.ndarray | None,
    k: int,
    *,
    n_tables: int,
    n_bits: int,
    seed,
) -> np.ndarray:
    """Per-row candidate neighbor indices from ``n_tables`` LSH tables.

    Returns ``(n, n_tables * cap)`` indices into the reference set, with
    the sentinel ``r`` (one past the last row) padding rows whose buckets
    ran short. Same-set mode (``ref_view is None``) hashes one point set;
    cross mode hashes the reference set and probes it with query codes.
    """
    rng = np.random.default_rng(seed)
    same = ref_view is None
    ref = view if same else ref_view
    n, f = view.shape
    r = ref.shape[0]
    cap = k + 1 if same else k
    # Bucket cap: degenerate buckets (e.g. near-duplicate data) would make
    # the within-bucket pass quadratic; chunking a huge bucket keeps every
    # row's candidate count bounded while the pass stays O(bucket²).
    bucket_cap = max(4 * cap, 256)
    candidates = np.full((n, n_tables * cap), r, dtype=np.int64)

    for table in range(n_tables):
        projections = rng.standard_normal((f, n_bits)).astype(view.dtype)
        ref_codes = _lsh_codes(ref, projections)
        order = np.argsort(ref_codes, kind="stable")
        sorted_codes = ref_codes[order]
        if same:
            query_codes = ref_codes
        else:
            query_codes = _lsh_codes(view, projections)
        starts = np.searchsorted(sorted_codes, query_codes, side="left")
        stops = np.searchsorted(sorted_codes, query_codes, side="right")
        column = table * cap
        # Group queries by bucket so each bucket's distance block runs once.
        bucket_of = np.stack([starts, stops], axis=1)
        bucket_order = np.lexsort((bucket_of[:, 1], bucket_of[:, 0]))
        grouped = bucket_of[bucket_order]
        boundaries = np.flatnonzero(
            np.any(np.diff(grouped, axis=0) != 0, axis=1)
        ) + 1
        for group in np.split(bucket_order, boundaries):
            start, stop = bucket_of[group[0]]
            if stop - start < (2 if same else 1):
                continue
            members = order[start:stop][:bucket_cap]
            take = min(cap, members.size)
            for row_start in range(0, group.size, 4096):
                rows = group[row_start:row_start + 4096]
                d = pairwise_sq_distances(view[rows], ref[members])
                nearest = np.argpartition(d, take - 1, axis=1)[:, :take]
                candidates[rows, column:column + take] = members[nearest]
    return candidates


def _neighbors_lsh(
    view: np.ndarray,
    k: int,
    *,
    options: dict,
    ref_view: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximate k-NN via seeded multi-table LSH with exact fallback.

    Returns ``(neighbors, sq_distances)`` of shape ``(n, k)``. Rows whose
    deduplicated candidate set is short of ``k`` are topped up with an
    exact blocked scan, so the output is always a valid k-neighborhood;
    only *which* neighbors were found is approximate.
    """
    same = ref_view is None
    ref = view if same else ref_view
    n, r = view.shape[0], ref.shape[0]
    seed = options.get("seed", 0)
    n_tables = int(options.get("n_tables", 8))
    if n_tables < 1:
        raise GraphConstructionError(f"n_tables must be >= 1; got {n_tables}")
    default_bits = int(np.clip(np.ceil(np.log2(max(r, 2) / max(4 * k, 16))), 2, 20))
    n_bits = int(options.get("n_bits", default_bits))
    if not 1 <= n_bits <= 62:
        raise GraphConstructionError(f"n_bits must be in [1, 62]; got {n_bits}")

    candidates = _lsh_candidates(
        view, ref_view, k, n_tables=n_tables, n_bits=n_bits, seed=seed
    )
    # Dedup per row: sort by index, blank repeats (and, in same-set mode,
    # the row itself) to the sentinel so they sort to the back below.
    candidates = np.sort(candidates, axis=1)
    repeat = np.zeros_like(candidates, dtype=bool)
    repeat[:, 1:] = candidates[:, 1:] == candidates[:, :-1]
    candidates[repeat] = r
    if same:
        candidates[candidates == np.arange(n)[:, None]] = r

    # Distances for surviving candidates; sentinels score +inf.
    padded = np.vstack([ref, np.zeros((1, ref.shape[1]), dtype=ref.dtype)])
    sq = _selected_sq_distances(view, candidates, ref_view=padded)
    sq[candidates == r] = np.inf
    take = min(k, candidates.shape[1])
    idx = np.argpartition(sq, take - 1, axis=1)[:, :take]
    order = np.argsort(np.take_along_axis(sq, idx, axis=1), axis=1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    neighbors = np.take_along_axis(candidates, idx, axis=1)
    distances = np.take_along_axis(sq, idx, axis=1)
    if take < k:
        pad = np.full((n, k - take), r, dtype=np.int64)
        neighbors = np.concatenate([neighbors, pad], axis=1)
        distances = np.concatenate(
            [distances, np.full((n, k - take), np.inf, dtype=distances.dtype)], axis=1
        )

    short = np.flatnonzero(~np.isfinite(distances).all(axis=1))
    if short.size:
        # Exact rescue for rows the hash tables under-served.
        block = max(1, _BLOCK_ENTRIES // max(r, 1))
        exact = np.empty((short.size, k), dtype=np.int64)
        for start in range(0, short.size, block):
            rows = short[start:start + block]
            d = pairwise_sq_distances(view[rows], ref).astype(view.dtype, copy=False)
            if same:
                d[np.arange(rows.size), rows] = np.inf
            cand = np.argpartition(d, min(k, r - 1), axis=1)[:, :k]
            suborder = np.argsort(
                np.take_along_axis(d, cand, axis=1), axis=1, kind="stable"
            )
            exact[start:start + block] = np.take_along_axis(cand, suborder, axis=1)
        neighbors[short] = exact
        distances[short] = _selected_sq_distances(
            view, exact, rows=short, ref_view=ref
        )
    return neighbors, distances


def _measure_recall(
    view: np.ndarray,
    neighbors: np.ndarray,
    k: int,
    *,
    sample: int,
    seed,
    backend: str,
) -> float | None:
    """Recall of ``neighbors`` vs an exact scan on a row subsample.

    Emits the ``knn.recall`` gauge (labelled by backend) so traced runs
    record the realized accuracy of every approximate graph build.
    """
    if sample <= 0:
        return None
    n = view.shape[0]
    rows = np.random.default_rng(seed).choice(n, size=min(int(sample), n), replace=False)
    d = pairwise_sq_distances(view[rows], view)
    d[np.arange(rows.size), rows] = np.inf
    exact = np.argpartition(d, min(k, n - 1), axis=1)[:, :k]
    hits = sum(
        np.intersect1d(exact[i], neighbors[row]).size
        for i, row in enumerate(rows)
    )
    recall = hits / float(rows.size * k)
    get_registry().set_gauge("knn.recall", recall, backend=backend)
    return recall


def _search_neighbors(
    view: np.ndarray, k: int, backend: str, options: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch the same-set neighbor search to the selected backend."""
    if backend == "exact":
        neighbors = _neighbors_exact(view, k)
        return neighbors, _selected_sq_distances(view, neighbors)
    if backend == "blocked":
        neighbors = _blocked_topk(
            view, view, k, exclude_self=True,
            block_entries=options.get("block_entries", _BLOCK_ENTRIES),
        )
        return neighbors, _selected_sq_distances(view, neighbors)
    neighbors, sq = _neighbors_lsh(view, k, options=options)
    _measure_recall(
        view, neighbors, k,
        sample=int(options.get("recall_sample", 64)),
        seed=options.get("seed", 0),
        backend="lsh",
    )
    return neighbors, sq


def knn_graph(
    X,
    *,
    n_neighbors: int = 10,
    bandwidth: float | None = None,
    exclude: np.ndarray | list | None = None,
    binary: bool = False,
    backend: str = "exact",
    backend_options: dict | None = None,
    dtype=None,
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
    backend:
        Neighbor-search backend — ``"exact"`` (default, cKDTree),
        ``"blocked"`` (chunked brute force, BLAS-fast for wide data) or
        ``"lsh"`` (seeded approximate hashing). See the module docstring
        for the complexity/accuracy table.
    backend_options:
        Backend knobs: ``seed``, ``n_tables``, ``n_bits`` and
        ``recall_sample`` for ``"lsh"`` (recall is measured on that many
        sampled rows and emitted as the ``knn.recall`` gauge);
        ``block_entries`` caps the ``"blocked"`` scratch block.
    dtype:
        ``None`` (historical float64), ``np.float32`` or ``np.float64``.
        float32 is preserved through distances, weights and the returned
        CSR data — the graph leg of the opt-in float32 pipeline.

    Returns
    -------
    scipy.sparse.csr_matrix
        Symmetric ``(n, n)`` adjacency with zero diagonal.
    """
    options = _check_backend(backend, backend_options)
    X = check_array(X, name="X", min_samples=2, dtype=None)
    X = _as_dtype(X, dtype)
    n = X.shape[0]
    if not 1 <= n_neighbors < n:
        raise GraphConstructionError(
            f"n_neighbors must be in [1, n-1] = [1, {n - 1}]; got {n_neighbors}"
        )

    distance_view = np.ascontiguousarray(_distance_view(X, exclude))
    bandwidth = resolve_bandwidth(distance_view, bandwidth, dtype=X.dtype)

    with span("graphs.knn", backend=backend, n=int(n), k=int(n_neighbors),
              dtype=str(X.dtype)):
        get_registry().inc("knn.build", backend=backend)
        neighbors, sq_distances = _search_neighbors(
            distance_view, n_neighbors, backend, options
        )
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = neighbors.ravel()
    weights = _edge_weights(
        sq_distances.ravel().astype(X.dtype, copy=False), bandwidth, binary
    )

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
    backend: str = "exact",
    backend_options: dict | None = None,
    dtype=None,
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
    backend, backend_options, dtype:
        As in :func:`knn_graph`; ``"lsh"`` hashes the reference set and
        probes it with the query codes.

    Returns
    -------
    scipy.sparse.csr_matrix
        ``(q, r)`` matrix with exactly ``n_neighbors`` non-negative entries
        per row (fewer only when heat-kernel weights underflow to zero).
    """
    options = _check_backend(backend, backend_options)
    X_query = check_array(X_query, name="X_query", dtype=None)
    X_ref = check_array(X_ref, name="X_ref", dtype=None)
    if X_query.shape[1] != X_ref.shape[1]:
        raise GraphConstructionError(
            f"X_query has {X_query.shape[1]} features but X_ref has "
            f"{X_ref.shape[1]}"
        )
    X_query = _as_dtype(X_query, dtype)
    X_ref = _as_dtype(X_ref, dtype)
    q, r = X_query.shape[0], X_ref.shape[0]
    if not 1 <= n_neighbors <= r:
        raise GraphConstructionError(
            f"n_neighbors must be in [1, n_ref] = [1, {r}]; got {n_neighbors}"
        )

    query_view = np.ascontiguousarray(_distance_view(X_query, exclude))
    ref_view = np.ascontiguousarray(_distance_view(X_ref, exclude))
    bandwidth = resolve_bandwidth(ref_view, bandwidth, dtype=X_ref.dtype)

    with span("graphs.knn_cross", backend=backend, q=int(q), r=int(r),
              k=int(n_neighbors), dtype=str(X_query.dtype)):
        get_registry().inc("knn.build", backend=backend)
        if backend == "exact":
            tree = cKDTree(ref_view)
            _, neighbors = tree.query(query_view, k=n_neighbors)
            if n_neighbors == 1:  # cKDTree squeezes the k axis for k=1
                neighbors = neighbors[:, None]
            sq_distances = _selected_sq_distances(
                query_view, neighbors, ref_view=ref_view
            )
        elif backend == "blocked":
            neighbors = _blocked_topk(
                query_view, ref_view, n_neighbors, exclude_self=False,
                block_entries=options.get("block_entries", _BLOCK_ENTRIES),
            )
            sq_distances = _selected_sq_distances(
                query_view, neighbors, ref_view=ref_view
            )
        else:
            neighbors, sq_distances = _neighbors_lsh(
                query_view, n_neighbors, options=options, ref_view=ref_view
            )
    rows = np.repeat(np.arange(q), n_neighbors)
    cols = neighbors.ravel()
    weights = _edge_weights(
        sq_distances.ravel().astype(X_query.dtype, copy=False), bandwidth, binary
    )

    W = sp.csr_matrix((weights, (rows, cols)), shape=(q, r))
    W.eliminate_zeros()
    return W
