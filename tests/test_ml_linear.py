"""Tests for repro.ml.linear — logistic regression and the sigmoid."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.ml import LogisticRegression, roc_auc_score, sigmoid


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_are_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(out))

    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), np.ones_like(z))


class TestLogisticRegression:
    def test_separable_data_high_accuracy(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression(C=10.0).fit(X, y)
        assert model.score(X, y) > 0.85

    def test_auc_on_noisy_data(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression().fit(X, y)
        assert roc_auc_score(y, model.predict_proba(X)[:, 1]) > 0.9

    def test_recovers_direction(self, rng):
        # With strong signal the weight vector should align with the truth.
        X = rng.normal(size=(2000, 3))
        w_true = np.array([2.0, -1.0, 0.0])
        y = (X @ w_true + rng.normal(scale=0.1, size=2000) > 0).astype(int)
        model = LogisticRegression(C=100.0).fit(X, y)
        direction = model.coef_ / np.linalg.norm(model.coef_)
        truth = w_true / np.linalg.norm(w_true)
        assert abs(direction @ truth) > 0.98

    def test_predict_proba_rows_sum_to_one(self, binary_problem):
        X, y = binary_problem
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(len(X)))
        assert np.all(proba >= 0) and np.all(proba <= 1)

    def test_predict_consistent_with_proba(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression().fit(X, y)
        np.testing.assert_array_equal(
            model.predict(X), (model.predict_proba(X)[:, 1] >= 0.5).astype(int)
        )

    def test_regularization_shrinks_weights(self, binary_problem):
        X, y = binary_problem
        loose = LogisticRegression(C=100.0).fit(X, y)
        tight = LogisticRegression(C=0.01).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_intercept_not_penalized(self, rng):
        # With an extreme class prior and no features carrying signal, the
        # intercept must still move freely under strong regularization.
        X = rng.normal(size=(300, 2))
        y = (rng.random(300) < 0.9).astype(int)
        model = LogisticRegression(C=1e-3).fit(X, y)
        assert sigmoid(np.array([model.intercept_]))[0] == pytest.approx(
            y.mean(), abs=0.05
        )

    def test_single_class_predicts_constant(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = LogisticRegression().fit(X, np.ones(3, dtype=int))
        assert model.predict(X).tolist() == [1, 1, 1]
        model = LogisticRegression().fit(X, np.zeros(3, dtype=int))
        assert model.predict(X).tolist() == [0, 0, 0]

    def test_balanced_class_weight(self, rng):
        # 95/5 imbalance: balanced weighting must raise recall on the
        # minority class relative to unweighted fitting.
        X = np.vstack([rng.normal(-0.5, 1, size=(950, 2)), rng.normal(0.8, 1, size=(50, 2))])
        y = np.concatenate([np.zeros(950, dtype=int), np.ones(50, dtype=int)])
        plain = LogisticRegression().fit(X, y)
        balanced = LogisticRegression(class_weight="balanced").fit(X, y)
        assert balanced.predict(X)[y == 1].mean() > plain.predict(X)[y == 1].mean()

    def test_invalid_class_weight(self, binary_problem):
        X, y = binary_problem
        with pytest.raises(ValidationError, match="class_weight"):
            LogisticRegression(class_weight="bogus").fit(X, y)

    def test_invalid_c(self, binary_problem):
        X, y = binary_problem
        with pytest.raises(ValidationError, match="C must be positive"):
            LogisticRegression(C=0.0).fit(X, y)

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValidationError, match="binary"):
            LogisticRegression().fit(np.ones((3, 1)), [0, 1, 2])

    def test_not_fitted_error(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(np.ones((2, 2)))

    def test_feature_count_mismatch(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression().fit(X, y)
        with pytest.raises(ValidationError, match="features"):
            model.predict(X[:, :2])

    def test_no_intercept_mode(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0

    def test_deterministic(self, binary_problem):
        X, y = binary_problem
        a = LogisticRegression().fit(X, y)
        b = LogisticRegression().fit(X, y)
        np.testing.assert_allclose(a.coef_, b.coef_)
