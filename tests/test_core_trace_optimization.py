"""Tests for repro.core.trace_optimization — the eigensolver layer."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    objective_matrix,
    pairwise_loss,
    sign_normalize,
    smallest_eigenvectors,
)
from repro.exceptions import ValidationError
from repro.graphs import laplacian


@pytest.fixture
def spd_matrix(rng):
    A = rng.normal(size=(12, 12))
    return A @ A.T + 0.1 * np.eye(12)


class TestSmallestEigenvectors:
    def test_matches_numpy(self, spd_matrix):
        values, vectors = smallest_eigenvectors(spd_matrix, 4)
        reference = np.sort(np.linalg.eigvalsh(spd_matrix))[:4]
        np.testing.assert_allclose(values, reference, atol=1e-9)

    def test_orthonormal(self, spd_matrix):
        _, V = smallest_eigenvectors(spd_matrix, 5)
        np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-9)

    def test_eigen_equation(self, spd_matrix):
        values, V = smallest_eigenvectors(spd_matrix, 3)
        np.testing.assert_allclose(spd_matrix @ V, V * values, atol=1e-8)

    def test_ascending_order(self, spd_matrix):
        values, _ = smallest_eigenvectors(spd_matrix, 6)
        assert np.all(np.diff(values) >= -1e-12)

    def test_sparse_input_solved_as_dense(self, rng):
        A = rng.normal(size=(60, 60))
        M = A @ A.T + 0.5 * np.eye(60)
        sparse_vals, sparse_vecs = smallest_eigenvectors(sp.csr_matrix(M), 3)
        dense_vals, dense_vecs = smallest_eigenvectors(M, 3)
        np.testing.assert_array_equal(sparse_vals, dense_vals)
        np.testing.assert_array_equal(sparse_vecs, dense_vecs)

    def test_sparse_integer_input(self):
        # Regression: a sparse integer matrix densified to an integer
        # array, and the in-place symmetrization raised a numpy casting
        # error instead of solving.
        M = sp.csr_matrix(np.diag([3, 1, 2]))
        values, vectors = smallest_eigenvectors(M, 2, B=sp.identity(3, dtype=int))
        np.testing.assert_allclose(values, [1.0, 2.0])
        values, _ = smallest_eigenvectors(M, 2)
        np.testing.assert_allclose(values, [1.0, 2.0])

    def test_generalized_problem(self, rng):
        A = rng.normal(size=(10, 10))
        M = A @ A.T
        Bm = rng.normal(size=(10, 10))
        B = Bm @ Bm.T + np.eye(10)
        values, V = smallest_eigenvectors(M, 3, B=B)
        # generalized eigen equation M v = λ B v
        np.testing.assert_allclose(M @ V, B @ V * values, atol=1e-8)
        # B-orthonormality
        np.testing.assert_allclose(V.T @ B @ V, np.eye(3), atol=1e-8)

    def test_generalized_shape_mismatch(self, spd_matrix):
        with pytest.raises(ValidationError, match="shape"):
            smallest_eigenvectors(spd_matrix, 2, B=np.eye(3))

    def test_d_out_of_range(self, spd_matrix):
        with pytest.raises(ValidationError):
            smallest_eigenvectors(spd_matrix, 0)
        with pytest.raises(ValidationError):
            smallest_eigenvectors(spd_matrix, 13)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            smallest_eigenvectors(np.ones((3, 4)), 1)

    def test_deterministic_signs(self, spd_matrix):
        _, V1 = smallest_eigenvectors(spd_matrix, 4)
        _, V2 = smallest_eigenvectors(spd_matrix, 4)
        np.testing.assert_array_equal(V1, V2)


class TestSignNormalize:
    def test_largest_entry_positive(self, rng):
        V = rng.normal(size=(8, 3))
        out = sign_normalize(V)
        for j in range(3):
            assert out[np.argmax(np.abs(out[:, j])), j] > 0

    def test_idempotent(self, rng):
        V = rng.normal(size=(6, 2))
        once = sign_normalize(V)
        np.testing.assert_array_equal(once, sign_normalize(once))

    def test_does_not_mutate_input(self, rng):
        V = rng.normal(size=(5, 2))
        V[0] = -10.0
        before = V.copy()
        sign_normalize(V)
        np.testing.assert_array_equal(V, before)

    def test_matches_per_column_reference(self, rng):
        # Pins the vectorized implementation to the original per-column
        # loop, including first-max tie-breaking on equal |pivots|.
        def reference(V):
            V = np.array(V, dtype=np.float64, copy=True)
            for j in range(V.shape[1]):
                pivot = np.argmax(np.abs(V[:, j]))
                if V[pivot, j] < 0:
                    V[:, j] = -V[:, j]
            return V

        for shape in [(1, 1), (7, 1), (8, 3), (20, 12), (3, 9)]:
            V = rng.normal(size=shape)
            np.testing.assert_array_equal(sign_normalize(V), reference(V))
        ties = np.array([[-2.0, 2.0, 0.5], [2.0, -2.0, -0.5], [1.0, 1.0, 0.1]])
        np.testing.assert_array_equal(sign_normalize(ties), reference(ties))

    def test_empty_matrix(self):
        out = sign_normalize(np.empty((0, 3)))
        assert out.shape == (0, 3)


class TestObjectiveMatrix:
    def test_symmetry(self, rng, knn_setup):
        X, W = knn_setup
        M = objective_matrix(X, laplacian(W))
        np.testing.assert_allclose(M, M.T, atol=1e-12)

    def test_psd(self, knn_setup):
        X, W = knn_setup
        M = objective_matrix(X, laplacian(W))
        assert np.linalg.eigvalsh(M).min() > -1e-9

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValidationError, match="nodes"):
            objective_matrix(rng.normal(size=(5, 2)), laplacian(np.zeros((4, 4))))

    def test_quadratic_form_equals_pairwise_loss(self, rng, knn_setup):
        # vᵀ (XᵀLX) v == ½ Σ W_ij ((Xv)_i - (Xv)_j)²
        X, W = knn_setup
        M = objective_matrix(X, laplacian(W))
        v = rng.normal(size=X.shape[1])
        assert float(v @ M @ v) == pytest.approx(
            0.5 * pairwise_loss(X @ v, W), rel=1e-9
        )


class TestPairwiseLoss:
    def test_matches_direct_sum(self, rng):
        Z = rng.normal(size=(15, 3))
        W = rng.random((15, 15))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 0.0)
        direct = sum(
            W[i, j] * np.sum((Z[i] - Z[j]) ** 2)
            for i in range(15)
            for j in range(15)
        )
        assert pairwise_loss(Z, sp.csr_matrix(W)) == pytest.approx(direct, rel=1e-9)

    def test_zero_for_identical_embeddings(self):
        Z = np.ones((6, 2))
        W = np.ones((6, 6)) - np.eye(6)
        assert pairwise_loss(Z, W) == pytest.approx(0.0, abs=1e-12)

    def test_1d_embedding_accepted(self, rng):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert pairwise_loss(np.array([0.0, 2.0]), W) == pytest.approx(8.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="nodes"):
            pairwise_loss(np.ones((3, 2)), np.zeros((4, 4)))
