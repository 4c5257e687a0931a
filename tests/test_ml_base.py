"""Tests for repro.ml.base — estimator protocol, params, cloning."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml import (
    BaseEstimator,
    LogisticRegression,
    StandardScaler,
    clone,
)


class Toy(BaseEstimator):
    def __init__(self, alpha=1.0, beta="x", values=None):
        self.alpha = alpha
        self.beta = beta
        self.values = values


class TestGetSetParams:
    def test_get_params_reflects_init(self):
        params = Toy(alpha=2.5, beta="y").get_params()
        assert params == {"alpha": 2.5, "beta": "y", "values": None}

    def test_set_params_roundtrip(self):
        toy = Toy().set_params(alpha=9.0)
        assert toy.alpha == 9.0

    def test_set_params_returns_self(self):
        toy = Toy()
        assert toy.set_params(alpha=1.0) is toy

    def test_set_unknown_param_raises(self):
        with pytest.raises(ValidationError, match="invalid parameter"):
            Toy().set_params(gamma=1)

    def test_repr_contains_params(self):
        assert "alpha=3" in repr(Toy(alpha=3))


class TestClone:
    def test_clone_copies_params(self):
        toy = Toy(alpha=7.0, values=[1, 2])
        copy = clone(toy)
        assert copy.alpha == 7.0
        assert copy is not toy

    def test_clone_deep_copies_mutables(self):
        toy = Toy(values=[1, 2])
        copy = clone(toy)
        copy.values.append(3)
        assert toy.values == [1, 2]

    def test_clone_drops_fitted_state(self):
        lr = LogisticRegression()
        lr.fit(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]))
        copy = clone(lr)
        assert not hasattr(copy, "coef_")

    def test_clone_rejects_non_estimator(self):
        with pytest.raises(ValidationError):
            clone(object())


class TestMixins:
    def test_fit_transform_equals_fit_then_transform(self, small_X):
        a = StandardScaler().fit_transform(small_X)
        b = StandardScaler().fit(small_X).transform(small_X)
        np.testing.assert_allclose(a, b)

    def test_classifier_score_is_accuracy(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression().fit(X, y)
        expected = float(np.mean(model.predict(X) == y))
        assert model.score(X, y) == pytest.approx(expected)

    def test_input_dim_after_fit(self, small_X):
        scaler = StandardScaler().fit(small_X)
        assert scaler.input_dim == small_X.shape[1]

    def test_input_dim_before_fit_raises(self):
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError, match="input_dim"):
            StandardScaler().input_dim
