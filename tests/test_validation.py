"""Tests for repro._validation — the shared input-hygiene layer."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro._validation import (
    check_array,
    check_binary_labels,
    check_consistent_length,
    check_is_fitted,
    check_random_state,
    check_square,
    check_symmetric,
    check_X_y,
    column_or_1d,
)
from repro.exceptions import NotFittedError, ValidationError


class TestCheckArray:
    def test_accepts_list_of_lists(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_rejects_1d_when_2d_required(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            check_array([1.0, 2.0, 3.0])

    def test_allows_1d_when_not_required(self):
        out = check_array([1.0, 2.0], ensure_2d=False)
        assert out.shape == (2,)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            check_array([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="infinity|NaN"):
            check_array([[1.0, np.inf]])

    def test_rejects_scalar(self):
        with pytest.raises(ValidationError):
            check_array(5.0)

    def test_min_samples(self):
        with pytest.raises(ValidationError, match="at least 3"):
            check_array([[1.0], [2.0]], min_samples=3)

    def test_rejects_strings(self):
        with pytest.raises(ValidationError):
            check_array([["a", "b"]])

    def test_sparse_rejected_by_default(self):
        W = sp.eye(3, format="csr")
        with pytest.raises(ValidationError, match="dense"):
            check_array(W)

    def test_sparse_accepted_when_allowed(self):
        W = sp.eye(3, format="coo")
        out = check_array(W, allow_sparse=True)
        assert sp.issparse(out)
        assert out.format == "csr"

    def test_sparse_nan_rejected(self):
        W = sp.csr_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="NaN"):
            check_array(W, allow_sparse=True)

    def test_keeps_dtype_when_none(self):
        out = check_array(np.array([[1, 2]], dtype=np.int32), dtype=None)
        assert out.dtype == np.int32


class TestColumnOr1d:
    def test_flattens_column_vector(self):
        out = column_or_1d(np.ones((4, 1)))
        assert out.shape == (4,)

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError, match="1-dimensional"):
            column_or_1d(np.ones((3, 2)))

    def test_passes_through_1d(self):
        y = np.array([1, 2, 3])
        assert column_or_1d(y).shape == (3,)


class TestConsistentLength:
    def test_returns_common_length(self):
        assert check_consistent_length(np.ones((5, 2)), np.ones(5)) == 5

    def test_raises_on_mismatch(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            check_consistent_length(np.ones(3), np.ones(4))

    def test_ignores_none(self):
        assert check_consistent_length(np.ones(4), None) == 4

    def test_raises_on_empty_call(self):
        with pytest.raises(ValidationError):
            check_consistent_length(None)


class TestCheckXY:
    def test_joint_validation(self):
        X, y = check_X_y([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert X.shape == (2, 2)
        assert y.shape == (2,)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            check_X_y([[1.0, 2.0]], [0, 1])


class TestBinaryLabels:
    def test_accepts_binary(self):
        y = check_binary_labels([0, 1, 1, 0])
        assert y.dtype == np.int64

    def test_accepts_single_class(self):
        assert check_binary_labels([1, 1]).tolist() == [1, 1]

    def test_rejects_other_values(self):
        with pytest.raises(ValidationError, match="binary"):
            check_binary_labels([0, 1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_binary_labels([-1, 1])


class TestCheckIsFitted:
    def test_raises_when_missing(self):
        class Model:
            coef_ = None

        with pytest.raises(NotFittedError, match="not fitted"):
            check_is_fitted(Model(), "coef_")

    def test_passes_when_present(self):
        class Model:
            coef_ = np.ones(3)

        check_is_fitted(Model(), "coef_")

    def test_multiple_attributes(self):
        class Model:
            a_ = 1
            b_ = None

        with pytest.raises(NotFittedError, match="b_"):
            check_is_fitted(Model(), ("a_", "b_"))


class TestRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = check_random_state(42).random(3)
        b = check_random_state(42).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_invalid_seed(self):
        with pytest.raises(ValidationError):
            check_random_state("not-a-seed")


class TestSquareSymmetric:
    def test_square_ok(self):
        out = check_square(np.eye(3))
        assert out.shape == (3, 3)

    def test_rectangular_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            check_square(np.ones((2, 3)))

    def test_symmetric_ok(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        check_symmetric(W)

    def test_asymmetric_rejected(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            check_symmetric(W)

    def test_dense_check_allocates_one_temporary(self):
        import tracemalloc

        W = np.random.default_rng(0).random((1000, 1000))
        W = W + W.T
        tracemalloc.start()
        try:
            check_symmetric(W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * W.nbytes

    def test_large_asymmetric_rejected_with_max_asymmetry(self):
        W = np.zeros((1000, 1000))
        W[10, 990] = 0.5
        W[990, 10] = -0.25
        with pytest.raises(
            ValidationError, match=r"W must be symmetric \(max asymmetry 0.75\)"
        ):
            check_symmetric(W)

    def test_sparse_symmetric_ok(self):
        W = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        out = check_symmetric(W)
        assert sp.issparse(out)

    def test_sparse_asymmetric_rejected(self):
        W = sp.csr_matrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="symmetric"):
            check_symmetric(W)

    def test_tolerance_respected(self):
        W = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        check_symmetric(W, tol=1e-10)
