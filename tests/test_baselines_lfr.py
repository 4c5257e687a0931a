"""Tests for repro.baselines.lfr — Zemel et al.'s LFR baseline."""

import numpy as np
import pytest
import scipy.optimize

from repro.baselines import LFR
from repro.exceptions import NotFittedError, ValidationError


@pytest.fixture
def grouped_problem(rng):
    n = 120
    s = np.repeat([0, 1], n // 2)
    X = rng.normal(size=(n, 3)) + 0.8 * s[:, None]
    y = (X[:, 0] + rng.normal(scale=0.5, size=n) > 0.4).astype(int)
    return X, y, s


class TestGradient:
    def test_loss_grad_matches_finite_differences(self, rng):
        X = rng.normal(size=(15, 3))
        y = rng.integers(0, 2, 15)
        y[:2] = [0, 1]
        s = np.array([0, 1] * 7 + [0])
        model = LFR(n_prototypes=4, a_x=0.3, a_y=1.0, a_z=2.0, seed=0)
        group_masks = (s == 0, s == 1)
        theta = rng.normal(size=4 * 3 + 4)
        theta[-4:] = np.clip(theta[-4:], 0.05, 0.95)

        error = scipy.optimize.check_grad(
            lambda t: model._loss_grad(t, X, y, group_masks)[0],
            lambda t: model._loss_grad(t, X, y, group_masks)[1],
            theta,
            seed=0,
        )
        magnitude = np.linalg.norm(model._loss_grad(theta, X, y, group_masks)[1])
        assert error / max(magnitude, 1.0) < 1e-5


class TestFit:
    def test_fit_reduces_loss(self, grouped_problem):
        X, y, s = grouped_problem
        short = LFR(n_prototypes=5, max_iter=1, seed=0).fit(X, y, s=s)
        long = LFR(n_prototypes=5, max_iter=150, seed=0).fit(X, y, s=s)
        assert long.loss_ <= short.loss_

    def test_transform_shape_and_simplex(self, grouped_problem):
        X, y, s = grouped_problem
        model = LFR(n_prototypes=6, seed=0).fit(X, y, s=s)
        assert model.prototypes_.shape == (6, X.shape[1])
        U = model.transform(X)
        assert U.shape == (len(X), 6)
        np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-10)
        assert U.min() >= 0.0

    def test_parity_term_mixes_groups(self, grouped_problem):
        # With a huge parity weight, per-group mean occupancies must be
        # much closer than with no parity weight.
        X, y, s = grouped_problem

        def occupancy_gap(a_z):
            model = LFR(n_prototypes=5, a_x=0.01, a_y=0.1, a_z=a_z, seed=1)
            U = model.fit(X, y, s=s).transform(X)
            return np.abs(U[s == 0].mean(axis=0) - U[s == 1].mean(axis=0)).sum()

        assert occupancy_gap(200.0) < occupancy_gap(0.0)

    def test_label_predictor_informative(self, grouped_problem):
        X, y, s = grouped_problem
        model = LFR(n_prototypes=8, a_y=2.0, a_z=1.0, seed=0).fit(X, y, s=s)
        from repro.ml import roc_auc_score

        assert roc_auc_score(y, model.predict_proba_positive(X)) > 0.6

    def test_label_weights_in_unit_interval(self, grouped_problem):
        X, y, s = grouped_problem
        model = LFR(n_prototypes=5, seed=0).fit(X, y, s=s)
        assert model.label_weights_.min() >= 0.0
        assert model.label_weights_.max() <= 1.0

    def test_out_of_sample_transform(self, grouped_problem, rng):
        X, y, s = grouped_problem
        model = LFR(n_prototypes=4, seed=0).fit(X, y, s=s)
        U = model.transform(rng.normal(size=(10, 3)))
        assert U.shape == (10, 4)

    def test_deterministic_given_seed(self, grouped_problem):
        X, y, s = grouped_problem
        a = LFR(n_prototypes=4, seed=3).fit(X, y, s=s)
        b = LFR(n_prototypes=4, seed=3).fit(X, y, s=s)
        np.testing.assert_allclose(a.prototypes_, b.prototypes_)


class TestValidation:
    def test_requires_s(self, grouped_problem):
        X, y, _ = grouped_problem
        with pytest.raises(ValidationError, match="protected"):
            LFR().fit(X, y)

    def test_requires_two_groups(self, grouped_problem):
        X, y, _ = grouped_problem
        with pytest.raises(ValidationError, match="two groups"):
            LFR().fit(X, y, s=np.zeros(len(y)))

    def test_negative_weights_rejected(self, grouped_problem):
        X, y, s = grouped_problem
        with pytest.raises(ValidationError, match="non-negative"):
            LFR(a_x=-1.0).fit(X, y, s=s)

    def test_invalid_prototype_count(self, grouped_problem):
        X, y, s = grouped_problem
        with pytest.raises(ValidationError, match="n_prototypes"):
            LFR(n_prototypes=0).fit(X, y, s=s)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LFR().transform(np.ones((2, 2)))

    def test_transform_feature_mismatch(self, grouped_problem):
        X, y, s = grouped_problem
        model = LFR(n_prototypes=3, seed=0).fit(X, y, s=s)
        with pytest.raises(ValidationError, match="shape"):
            model.transform(np.ones((2, 5)))
