"""Tests for repro.ml.preprocessing — standardization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import NotFittedError, ValidationError
from repro.ml import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, small_X):
        Z = StandardScaler().fit_transform(small_X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_not_divided_by_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        np.testing.assert_allclose(Z[:, 0], 0.0)

    def test_transform_uses_training_statistics(self, small_X, rng):
        scaler = StandardScaler().fit(small_X)
        other = rng.normal(5.0, 2.0, size=(10, small_X.shape[1]))
        Z = scaler.transform(other)
        np.testing.assert_allclose(Z, (other - scaler.mean_) / scaler.scale_)

    def test_without_mean(self, small_X):
        Z = StandardScaler(with_mean=False).fit_transform(small_X)
        assert not np.allclose(Z.mean(axis=0), 0.0, atol=1e-6)

    def test_without_std(self, small_X):
        scaler = StandardScaler(with_std=False).fit(small_X)
        np.testing.assert_allclose(scaler.scale_, 1.0)

    def test_feature_mismatch_raises(self, small_X):
        scaler = StandardScaler().fit(small_X)
        with pytest.raises(ValidationError, match="features"):
            scaler.transform(small_X[:, :2])

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.ones((2, 2)))


@settings(max_examples=30, deadline=None)
@given(
    X=arrays(
        np.float64,
        st.tuples(st.integers(2, 30), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_standard_scaler_idempotent_property(X):
    """Scaling already-scaled data is (numerically) a no-op."""
    scaler = StandardScaler()
    once = scaler.fit_transform(X)
    twice = StandardScaler().fit_transform(once)
    np.testing.assert_allclose(once, twice, atol=1e-7)
