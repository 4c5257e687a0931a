"""Tests for repro.baselines.ifair — the iFair baseline."""

import numpy as np
import pytest
import scipy.optimize

from repro.baselines import IFair
from repro.exceptions import NotFittedError, ValidationError


@pytest.fixture
def grouped_data(rng):
    n = 100
    s = np.repeat([0, 1], n // 2)
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.normal(size=n) * 0.5,
            s.astype(float),  # the protected column
        ]
    )
    return X, s


class TestGradient:
    def test_loss_grad_matches_finite_differences(self, rng):
        X = rng.normal(size=(12, 3))
        model = IFair(n_prototypes=3, lambda_util=0.7, mu_fair=1.3, seed=0)
        pairs = np.array([(0, 1), (2, 5), (7, 11), (3, 4)])
        target = rng.random(len(pairs)) * 2.0
        theta = np.concatenate(
            [rng.normal(size=3 * 3), rng.uniform(0.5, 1.5, size=3)]
        )
        error = scipy.optimize.check_grad(
            lambda t: model._loss_grad(t, X, pairs, target)[0],
            lambda t: model._loss_grad(t, X, pairs, target)[1],
            theta,
            seed=0,
        )
        magnitude = np.linalg.norm(model._loss_grad(theta, X, pairs, target)[1])
        assert error / max(magnitude, 1.0) < 1e-5


class TestFit:
    def test_transform_preserves_dimensionality(self, grouped_data):
        X, _ = grouped_data
        model = IFair(n_prototypes=5, max_iter=40, seed=0)
        Z = model.fit_transform(X)
        assert Z.shape == X.shape
        assert model.prototypes_.shape == (5, X.shape[1])

    def test_fit_reduces_loss(self, grouped_data):
        X, _ = grouped_data
        short = IFair(n_prototypes=5, max_iter=1, seed=0).fit(X)
        long = IFair(n_prototypes=5, max_iter=120, seed=0).fit(X)
        assert long.loss_ <= short.loss_

    def test_reconstruction_dominates_with_large_lambda(self, grouped_data):
        X, _ = grouped_data
        model = IFair(
            n_prototypes=20, lambda_util=100.0, mu_fair=0.001, max_iter=150, seed=0
        ).fit(X)
        Z = model.transform(X)
        relative_error = np.linalg.norm(Z - X) / np.linalg.norm(X)
        assert relative_error < 0.5

    def test_obfuscation_hides_protected_differences(self, grouped_data):
        # Two individuals identical in everything but the protected column
        # should map (almost) to the same transported representation.
        X, _ = grouped_data
        model = IFair(
            n_prototypes=5,
            protected_columns=[2],
            mu_fair=5.0,
            max_iter=120,
            seed=0,
        ).fit(X)
        twin_a = np.array([[0.5, -0.2, 0.0]])
        twin_b = np.array([[0.5, -0.2, 1.0]])
        transported = np.linalg.norm(
            model.transform(twin_a) - model.transform(twin_b)
        )
        assert transported < 0.5  # raw distance is exactly 1.0

    def test_feature_weights_nonnegative(self, grouped_data):
        X, _ = grouped_data
        model = IFair(n_prototypes=4, max_iter=60, seed=0).fit(X)
        assert model.feature_weights_.min() >= 0.0

    def test_out_of_sample(self, grouped_data, rng):
        X, _ = grouped_data
        model = IFair(n_prototypes=4, max_iter=40, seed=0).fit(X)
        Z = model.transform(rng.normal(size=(7, 3)))
        assert Z.shape == (7, 3)
        assert np.all(np.isfinite(Z))

    def test_pair_subsampling_activates(self, rng):
        X = rng.normal(size=(300, 2))
        model = IFair(n_prototypes=3, max_pairs=500, max_iter=5, seed=0)
        pairs = model._sample_pairs(300, np.random.default_rng(0))
        assert len(pairs) <= 500
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_all_pairs_for_small_n(self):
        model = IFair(max_pairs=100)
        pairs = model._sample_pairs(10, np.random.default_rng(0))
        assert len(pairs) == 45  # C(10, 2)

    def test_deterministic(self, grouped_data):
        X, _ = grouped_data
        a = IFair(n_prototypes=4, max_iter=30, seed=9).fit(X)
        b = IFair(n_prototypes=4, max_iter=30, seed=9).fit(X)
        np.testing.assert_allclose(a.prototypes_, b.prototypes_)


class TestValidation:
    def test_invalid_prototypes(self, grouped_data):
        X, _ = grouped_data
        with pytest.raises(ValidationError, match="n_prototypes"):
            IFair(n_prototypes=0).fit(X)

    def test_negative_weights(self, grouped_data):
        X, _ = grouped_data
        with pytest.raises(ValidationError, match="non-negative"):
            IFair(lambda_util=-1.0).fit(X)

    def test_bad_protected_columns(self, grouped_data):
        X, _ = grouped_data
        with pytest.raises(ValidationError, match="protected_columns"):
            IFair(protected_columns=[99]).fit(X)

    def test_protecting_everything_rejected(self, grouped_data):
        X, _ = grouped_data
        with pytest.raises(ValidationError, match="every feature"):
            IFair(protected_columns=[0, 1, 2]).fit(X)

    def test_invalid_max_pairs(self, grouped_data):
        X, _ = grouped_data
        with pytest.raises(ValidationError, match="max_pairs"):
            IFair(max_pairs=0).fit(X)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            IFair().transform(np.ones((2, 2)))

    def test_transform_feature_mismatch(self, grouped_data):
        X, _ = grouped_data
        model = IFair(n_prototypes=3, max_iter=10, seed=0).fit(X)
        with pytest.raises(ValidationError, match="features"):
            model.transform(np.ones((2, 5)))
