"""Tests for repro.ml.metrics — hand-computed values and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.ml import (
    confusion_matrix,
    false_negative_rate,
    false_positive_rate,
    positive_prediction_rate,
    roc_auc_score,
    roc_curve,
)

Y_TRUE = np.array([0, 0, 1, 1, 1, 0, 1, 0])
Y_PRED = np.array([0, 1, 1, 0, 1, 0, 1, 1])
# confusion: TN=2, FP=2, FN=1, TP=3


class TestConfusionDerived:
    def test_confusion_matrix_layout(self):
        matrix = confusion_matrix(Y_TRUE, Y_PRED)
        np.testing.assert_array_equal(matrix, [[2, 2], [1, 3]])

    def test_fpr(self):
        assert false_positive_rate(Y_TRUE, Y_PRED) == pytest.approx(2 / 4)

    def test_fnr(self):
        assert false_negative_rate(Y_TRUE, Y_PRED) == pytest.approx(1 / 4)

    def test_positive_prediction_rate(self):
        assert positive_prediction_rate(Y_PRED) == pytest.approx(5 / 8)

    def test_degenerate_no_positives(self):
        assert false_negative_rate([0, 0], [0, 0]) == 0.0
        assert false_positive_rate([1, 1], [1, 1]) == 0.0

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            confusion_matrix([0, 2], [0, 1])


class TestRocCurve:
    def test_perfect_classifier(self):
        fpr, tpr, thresholds = roc_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        # The curve must pass through (0, 1) for a perfect ranking.
        assert any(f == 0.0 and t == 1.0 for f, t in zip(fpr, tpr))
        assert thresholds[0] == np.inf

    def test_monotone(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 100)
        y[:2] = [0, 1]
        scores = rng.random(100)
        fpr, tpr, _ = roc_curve(y, scores)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="both classes"):
            roc_curve([1, 1], [0.3, 0.4])


class TestAuc:
    def test_perfect(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_is_half(self):
        assert roc_auc_score([0, 1], [0.5, 0.5]) == pytest.approx(0.5)

    def test_ties_get_half_credit(self):
        # positives: 0.5, 0.9 ; negatives: 0.5, 0.1
        # pairs: (0.5 vs 0.5) = 0.5, (0.5 vs 0.1) = 1, (0.9 vs 0.5) = 1, (0.9 vs 0.1) = 1
        assert roc_auc_score([0, 1, 1, 0], [0.5, 0.5, 0.9, 0.1]) == pytest.approx(
            3.5 / 4
        )

    def test_matches_trapezoid_area(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 200)
        y[:2] = [0, 1]
        scores = np.round(rng.random(200), 2)  # force ties
        fpr, tpr, _ = roc_curve(y, scores)
        area = float(np.trapezoid(tpr, fpr))
        assert roc_auc_score(y, scores) == pytest.approx(area, abs=1e-12)

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 100)
        y[:2] = [0, 1]
        scores = rng.normal(size=100)
        a = roc_auc_score(y, scores)
        b = roc_auc_score(y, np.exp(scores))
        assert a == pytest.approx(b)


@settings(max_examples=50, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=4, max_size=60),
    raw=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=60),
)
def test_auc_symmetry_property(labels, raw):
    """AUC(y, s) + AUC(y, -s) == 1 whenever both classes are present."""
    n = min(len(labels), len(raw))
    y = np.asarray(labels[:n])
    scores = np.asarray(raw[:n])
    if len(np.unique(y)) < 2:
        return
    total = roc_auc_score(y, scores) + roc_auc_score(y, -scores)
    assert total == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    y_true=st.lists(st.integers(0, 1), min_size=2, max_size=40),
    y_pred=st.lists(st.integers(0, 1), min_size=2, max_size=40),
)
def test_confusion_sums_property(y_true, y_pred):
    """Confusion matrix entries always sum to the sample count."""
    n = min(len(y_true), len(y_pred))
    matrix = confusion_matrix(y_true[:n], y_pred[:n])
    assert matrix.sum() == n
    assert (matrix >= 0).all()
