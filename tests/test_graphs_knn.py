"""Tests for repro.graphs.knn — the data-similarity graph WX."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import kernel_matrix
from repro.exceptions import GraphConstructionError, ValidationError
from repro.graphs import knn_graph, median_heuristic, pairwise_sq_distances


def _reference_sq_distances(X, Y=None):
    """The out-of-place expansion the in-place kernel must reproduce.

    Every input dtype, float32 included, is computed in float64.
    """
    X = np.asarray(X)
    Y = X if Y is None else np.asarray(Y)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    x_sq = np.sum(X * X, axis=1)[:, None]
    y_sq = np.sum(Y * Y, axis=1)[None, :]
    d = x_sq + y_sq - 2.0 * (X @ Y.T)
    np.maximum(d, 0.0, out=d)
    return d


def _reference_median(X, *, sample_size=2000, seed=0):
    """Full distance matrix, off-diagonal mask, ``np.median``."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n > sample_size:
        rng = np.random.default_rng(seed)
        X = X[rng.choice(n, size=sample_size, replace=False)]
    d = _reference_sq_distances(X)
    median = float(np.median(d[~np.eye(d.shape[0], dtype=bool)]))
    return 1.0 if median <= 0.0 else median


def _median_cases():
    """Input families for the bitwise median oracle."""
    rng = np.random.default_rng(2024)
    wide = rng.normal(size=(70, 9))
    cases = {
        "float64": rng.normal(size=(60, 5)),
        "float32": rng.normal(size=(60, 5)).astype(np.float32),
        "scaled": rng.normal(size=(45, 3)) * 1e3,
        "ties": np.round(rng.normal(size=(80, 2))),
        "ties_float32": np.round(rng.normal(size=(80, 2))).astype(np.float32),
        "duplicates": rng.normal(size=(10, 4))[rng.integers(0, 10, size=50)],
        "n2": rng.normal(size=(2, 3)),
        "n3": rng.normal(size=(3, 3)),
        "n3_float32": rng.normal(size=(3, 3)).astype(np.float32),
        "strided": wide[:, ::2],
        "column_subset": wide[:, [0, 2, 3, 7]],
        "column_subset_float32": wide.astype(np.float32)[:, [1, 4, 5]],
        "fortran": np.asfortranarray(rng.normal(size=(55, 6))),
        "one_column": rng.normal(size=(40, 1)),
        "coincident": np.ones((6, 2)),
    }
    return [pytest.param(x, id=name) for name, x in cases.items()]


MEDIAN_CASES = _median_cases()


class TestMedianHeuristicExact:
    @pytest.mark.parametrize("X", MEDIAN_CASES)
    def test_bitwise_equal_to_reference(self, X):
        assert median_heuristic(X) == _reference_median(X)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subsample_path_bitwise(self, seed):
        X = np.random.default_rng(seed).normal(size=(300, 4))
        for sample_size in (2, 3, 57, 299):
            assert median_heuristic(
                X, sample_size=sample_size, seed=seed
            ) == _reference_median(X, sample_size=sample_size, seed=seed)

    def test_many_random_inputs(self):
        rng = np.random.default_rng(99)
        for trial in range(60):
            n = int(rng.integers(2, 90))
            X = rng.normal(size=(n, int(rng.integers(1, 8))))
            if trial % 3 == 1:
                X = np.round(X * 2)
            if trial % 2:
                X = X.astype(np.float32)
            assert median_heuristic(X) == _reference_median(X), trial

    @pytest.mark.parametrize("X", MEDIAN_CASES)
    def test_distances_exactly_symmetric(self, X):
        # The upper-triangle median relies on d == d.T bit for bit.
        d = pairwise_sq_distances(X)
        assert np.array_equal(d, d.T)

    def test_one_row_rejected(self):
        with pytest.raises(ValidationError, match="at least two"):
            median_heuristic(np.ones((1, 3)))

    def test_subsample_to_one_row_rejected(self, rng):
        with pytest.raises(ValidationError, match="at least two"):
            median_heuristic(rng.normal(size=(5, 2)), sample_size=1)

    def test_one_row_reference_kernel_rejected(self, rng):
        # Without a bandwidth the RBF kernel took the median of a one-row
        # Y, which used to be NaN: an all-NaN kernel, silently.
        with pytest.raises(ValidationError, match="at least two"):
            kernel_matrix(rng.normal(size=(4, 3)), rng.normal(size=(1, 3)))

    def test_peak_allocation(self):
        # The Gram matrix plus the upper-triangle buffer: ~1.5·n² values,
        # against ~3·n² for distance matrix + mask + off-diagonal copy.
        n = 1500
        X = np.random.default_rng(0).normal(size=(n, 8))
        tracemalloc.start()
        try:
            median_heuristic(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * n * n * 8


class TestInPlaceDistanceKernels:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(17, 5, 4), (5, 17, 4), (1, 9, 3), (9, 1, 3)])
    def test_cross_distances_bitwise(self, rng, dtype, shape):
        n, m, f = shape
        X = rng.normal(size=(n, f)).astype(dtype)
        Y = rng.normal(size=(m, f)).astype(dtype)
        d = pairwise_sq_distances(X, Y)
        ref = _reference_sq_distances(X, Y)
        assert d.dtype == ref.dtype and np.array_equal(d, ref)

    def test_mixed_dtypes_compute_in_float64(self, rng):
        X = rng.normal(size=(6, 3)).astype(np.float32)
        Y = rng.normal(size=(4, 3))
        d = pairwise_sq_distances(X, Y)
        assert d.dtype == np.float64
        assert np.array_equal(d, _reference_sq_distances(X, Y))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "bandwidth", [None, 0.7, np.float64(0.7), np.float32(0.7), 2]
    )
    def test_rbf_kernel_bitwise(self, rng, dtype, bandwidth):
        X = rng.normal(size=(11, 4)).astype(dtype)
        Y = rng.normal(size=(7, 4)).astype(dtype)
        t = _reference_median(Y) if bandwidth is None else bandwidth
        ref = np.exp(-_reference_sq_distances(X, Y) / t)
        K = kernel_matrix(X, Y, bandwidth=bandwidth)
        assert K.dtype == ref.dtype and np.array_equal(K, ref)


class TestPairwiseDistances:
    def test_matches_direct_computation(self, rng):
        X = rng.normal(size=(12, 4))
        D = pairwise_sq_distances(X)
        direct = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(D, direct, atol=1e-9)

    def test_zero_diagonal(self, rng):
        X = rng.normal(size=(8, 3))
        np.testing.assert_allclose(np.diag(pairwise_sq_distances(X)), 0.0, atol=1e-9)

    def test_cross_distances(self, rng):
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=(7, 2))
        D = pairwise_sq_distances(X, Y)
        assert D.shape == (5, 7)
        assert D.min() >= 0.0

    def test_never_negative_despite_cancellation(self):
        X = np.array([[1e8, 1e8], [1e8, 1e8]])
        assert pairwise_sq_distances(X).min() >= 0.0


class TestMedianHeuristic:
    def test_positive(self, rng):
        assert median_heuristic(rng.normal(size=(30, 3))) > 0

    def test_degenerate_data(self):
        assert median_heuristic(np.ones((10, 2))) == 1.0

    def test_subsampling_is_stable(self, rng):
        X = rng.normal(size=(5000, 2))
        full = median_heuristic(X, sample_size=5000)
        sampled = median_heuristic(X, sample_size=500)
        assert sampled == pytest.approx(full, rel=0.3)


class TestKnnGraph:
    def test_shape_and_sparsity(self, rng):
        X = rng.normal(size=(50, 3))
        W = knn_graph(X, n_neighbors=5)
        assert W.shape == (50, 50)
        assert sp.issparse(W)

    def test_symmetric(self, knn_setup):
        _, W = knn_setup
        assert (abs(W - W.T)).nnz == 0

    def test_zero_diagonal(self, knn_setup):
        _, W = knn_setup
        assert np.all(W.diagonal() == 0.0)

    def test_weights_in_unit_interval(self, knn_setup):
        _, W = knn_setup
        assert W.data.min() > 0.0
        assert W.data.max() <= 1.0

    def test_min_degree_is_k(self, rng):
        # The OR rule guarantees every node keeps at least its own k edges.
        X = rng.normal(size=(40, 3))
        W = knn_graph(X, n_neighbors=4, binary=True)
        degrees = np.asarray((W > 0).sum(axis=1)).ravel()
        assert degrees.min() >= 4

    def test_nearest_neighbor_connected(self, rng):
        X = rng.normal(size=(30, 2))
        W = knn_graph(X, n_neighbors=3).toarray()
        D = pairwise_sq_distances(X)
        np.fill_diagonal(D, np.inf)
        nearest = D.argmin(axis=1)
        for i, j in enumerate(nearest):
            assert W[i, j] > 0.0

    def test_closer_neighbors_heavier(self, rng):
        X = rng.normal(size=(30, 2))
        W = knn_graph(X, n_neighbors=5)
        D = pairwise_sq_distances(X)
        rows, cols = W.nonzero()
        weights = np.asarray(W[rows, cols]).ravel()
        order = np.argsort(D[rows, cols])
        assert np.all(np.diff(weights[order]) <= 1e-12)

    def test_exclude_columns(self, rng):
        # A huge protected column must not affect the graph when excluded.
        X = rng.normal(size=(30, 2))
        protected = rng.integers(0, 2, 30) * 1000.0
        X_aug = np.column_stack([X, protected])
        W_plain = knn_graph(X, n_neighbors=4, bandwidth=1.0)
        W_excl = knn_graph(X_aug, n_neighbors=4, bandwidth=1.0, exclude=[2])
        np.testing.assert_allclose(W_plain.toarray(), W_excl.toarray(), atol=1e-12)

    def test_binary_mode(self, rng):
        W = knn_graph(rng.normal(size=(20, 2)), n_neighbors=3, binary=True)
        assert set(np.unique(W.data)) == {1.0}

    def test_bandwidth_controls_decay(self, rng):
        X = rng.normal(size=(25, 2))
        tight = knn_graph(X, n_neighbors=5, bandwidth=0.01)
        loose = knn_graph(X, n_neighbors=5, bandwidth=100.0)
        assert tight.data.mean() < loose.data.mean()

    def test_invalid_neighbors(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(GraphConstructionError):
            knn_graph(X, n_neighbors=10)
        with pytest.raises(GraphConstructionError):
            knn_graph(X, n_neighbors=0)

    def test_invalid_bandwidth(self, rng):
        with pytest.raises(GraphConstructionError, match="bandwidth"):
            knn_graph(rng.normal(size=(10, 2)), n_neighbors=2, bandwidth=-1.0)

    def test_exclude_everything_rejected(self, rng):
        with pytest.raises(GraphConstructionError, match="every feature"):
            knn_graph(rng.normal(size=(10, 2)), n_neighbors=2, exclude=[0, 1])

    @pytest.mark.parametrize("exclude", [[-1], [9], [1, 4]], ids=str)
    @pytest.mark.parametrize("caller", [
        "knn_graph", "knn_cross", "resolve_bandwidth", "select_landmarks",
        "nystrom_extend", "PFR", "KernelPFR",
    ])
    def test_out_of_range_exclude_rejected(self, rng, caller, exclude):
        # An index outside X's 4 columns would leave the protected column
        # inside the k-NN distances (paper §3.1), so every caller refuses it.
        from repro.core import KernelPFR, PFR, nystrom_extend, select_landmarks
        from repro.graphs import knn_cross, resolve_bandwidth

        X = rng.normal(size=(20, 4))
        calls = {
            "knn_graph": lambda: knn_graph(X, n_neighbors=3, exclude=exclude),
            "knn_cross": lambda: knn_cross(
                X[:5], X, n_neighbors=3, bandwidth=1.0, exclude=exclude
            ),
            "resolve_bandwidth": lambda: resolve_bandwidth(X, exclude=exclude),
            "select_landmarks": lambda: select_landmarks(X, 5, exclude=exclude),
            "nystrom_extend": lambda: nystrom_extend(
                X[:5], X, np.ones((20, 2)), exclude=exclude
            ),
            "PFR": lambda: PFR(n_neighbors=3, exclude_columns=exclude).fit(
                X, sp.csr_matrix((20, 20))
            ),
            "KernelPFR": lambda: KernelPFR(
                n_neighbors=3, exclude_columns=exclude
            ).fit(X, sp.csr_matrix((20, 20))),
        }
        outside = [c for c in exclude if not 0 <= c < 4]
        with pytest.raises(
            GraphConstructionError,
            match=rf"exclude columns \{outside}.* 4 feature columns",
        ):
            calls[caller]()


def _graph_bytes(W) -> tuple:
    W = W.tocsr()
    return (W.data.tobytes(), W.indices.tobytes(), W.indptr.tobytes())


class TestKnnEdgeCases:
    def test_k_equals_one(self, rng):
        X = rng.normal(size=(25, 4))
        W = knn_graph(X, n_neighbors=1)
        assert np.diff(W.tocsr().indptr).min() >= 1
        assert np.abs(W.diagonal()).max() == 0.0

    def test_exclude_drops_columns_from_metric(self, rng):
        # The excluded column is pure noise; graphs with and without it
        # must be identical once it is excluded.
        base = rng.normal(size=(40, 4))
        noisy = np.column_stack([base, rng.normal(scale=50.0, size=40)])
        W_base = knn_graph(base, n_neighbors=3)
        W_excl = knn_graph(noisy, n_neighbors=3, exclude=[4])
        assert _graph_bytes(W_base) == _graph_bytes(W_excl)

    def test_duplicate_rows_self_excluded(self):
        # Regression: with many coincident rows the self-point used to
        # survive distance-based filtering and silently shrink degrees.
        X = np.repeat(np.arange(6.0)[:, None], 5, axis=0) @ np.ones((1, 3))
        W = knn_graph(X, n_neighbors=4, binary=True)
        assert np.abs(W.diagonal()).max() == 0.0
        assert np.diff(W.tocsr().indptr).min() >= 4

    def test_all_identical_rows(self):
        X = np.ones((10, 3))
        W = knn_graph(X, n_neighbors=3, binary=True)
        assert np.abs(W.diagonal()).max() == 0.0
        assert np.diff(W.tocsr().indptr).min() >= 3

    def test_float32_input_builds_float64_graph(self, rng):
        X = rng.normal(size=(30, 3))
        W = knn_graph(X.astype(np.float32), n_neighbors=3)
        assert W.dtype == np.float64
        assert _graph_bytes(W) == _graph_bytes(
            knn_graph(X.astype(np.float32).astype(np.float64), n_neighbors=3)
        )
