"""Tests for repro.graphs.laplacian — spectral bookkeeping."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.exceptions import GraphConstructionError
from repro.graphs import (
    combine_laplacians,
    edge_count,
    graph_density,
    laplacian,
)

PATH_3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


class TestLaplacian:
    def test_combinatorial_values(self):
        L = laplacian(PATH_3).toarray()
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(L, expected)

    def test_rows_sum_to_zero(self, knn_setup):
        _, W = knn_setup
        L = laplacian(W)
        np.testing.assert_allclose(np.asarray(L.sum(axis=1)).ravel(), 0.0, atol=1e-10)

    def test_positive_semidefinite(self, knn_setup):
        _, W = knn_setup
        eigenvalues = np.linalg.eigvalsh(laplacian(W).toarray())
        assert eigenvalues.min() > -1e-9

    def test_quadratic_form_identity(self, rng, knn_setup):
        # xᵀLx == ½ Σ W_ij (x_i - x_j)²  — the identity PFR relies on.
        _, W = knn_setup
        x = rng.normal(size=W.shape[0])
        L = laplacian(W)
        quad = float(x @ (L @ x))
        dense = W.toarray()
        direct = 0.5 * np.sum(dense * (x[:, None] - x[None, :]) ** 2)
        assert quad == pytest.approx(direct, rel=1e-9)

    def test_normalized_diagonal_is_one(self, knn_setup):
        _, W = knn_setup
        L = laplacian(W, normalized=True).toarray()
        np.testing.assert_allclose(np.diag(L), 1.0, atol=1e-10)

    def test_normalized_isolated_vertex_zero_row(self):
        W = sp.csr_matrix(
            (np.ones(2), (np.array([0, 1]), np.array([1, 0]))), shape=(3, 3)
        )
        L = laplacian(W, normalized=True).toarray()
        np.testing.assert_allclose(L[2], 0.0)

    def test_negative_weights_rejected(self):
        W = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(GraphConstructionError, match="non-negative"):
            laplacian(W)

    def test_zero_eigenvalue_per_component(self):
        # two disjoint edges -> 2 components -> eigenvalue 0 multiplicity 2
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        eigenvalues = np.sort(np.linalg.eigvalsh(laplacian(W).toarray()))
        assert np.sum(np.abs(eigenvalues) < 1e-10) == 2


class TestCombine:
    def test_endpoints(self, knn_setup):
        _, W = knn_setup
        L_x = laplacian(W)
        L_f = laplacian(sp.csr_matrix(W.shape))
        np.testing.assert_allclose(
            combine_laplacians(L_x, L_f, 0.0).toarray(), L_x.toarray()
        )
        np.testing.assert_allclose(
            combine_laplacians(L_x, L_f, 1.0).toarray(), L_f.toarray()
        )

    def test_convexity(self, knn_setup):
        _, W = knn_setup
        L = laplacian(W)
        mixed = combine_laplacians(L, 2.0 * L, 0.5).toarray()
        np.testing.assert_allclose(mixed, 1.5 * L.toarray())

    def test_rescale_balances_energy(self):
        light = laplacian(PATH_3)
        heavy = laplacian(100.0 * PATH_3)
        mixed = combine_laplacians(light, heavy, 0.5, rescale=True).toarray()
        # after rescale both halves have mean diagonal 1, so the mix too
        assert np.trace(mixed) / 3 == pytest.approx(1.0)

    def test_rescale_zero_graph_safe(self):
        empty = laplacian(np.zeros((3, 3)))
        out = combine_laplacians(empty, empty, 0.5, rescale=True)
        assert out.nnz == 0

    def test_invalid_gamma(self):
        L = laplacian(PATH_3)
        with pytest.raises(GraphConstructionError):
            combine_laplacians(L, L, 1.5)

    def test_shape_mismatch(self):
        with pytest.raises(GraphConstructionError, match="shapes"):
            combine_laplacians(laplacian(PATH_3), laplacian(np.zeros((2, 2))), 0.5)


class TestGraphStats:
    def test_edge_count_path(self):
        assert edge_count(PATH_3) == 2

    def test_density(self):
        assert graph_density(PATH_3) == pytest.approx(2 / 3)

    def test_density_tiny_graph(self):
        assert graph_density(np.zeros((1, 1))) == 0.0

    def test_connected_components(self):
        # L = D - W has one zero eigenvalue per connected component.
        W = np.zeros((5, 5))
        W[0, 1] = W[1, 0] = 1.0
        n_components, _ = connected_components(W, directed=False)
        assert n_components == 4  # edge + 3 isolated
        eigenvalues = np.linalg.eigvalsh(laplacian(W).toarray())
        assert int(np.sum(np.abs(eigenvalues) < 1e-10)) == n_components
