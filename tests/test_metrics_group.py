"""Tests for repro.metrics.group — group-fairness measures."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.metrics import group_auc, group_rates

Y_TRUE = np.array([1, 0, 1, 0, 1, 0, 1, 0])
Y_PRED = np.array([1, 1, 1, 0, 0, 0, 1, 1])
S = np.array([0, 0, 0, 0, 1, 1, 1, 1])
# group 0: true (1,0,1,0) pred (1,1,1,0): P=0.75, FPR=0.5, FNR=0
# group 1: true (1,0,1,0) pred (0,0,1,1): P=0.5,  FPR=0.5, FNR=0.5


class TestGroupRates:
    def test_positive_rates(self):
        rates = group_rates(Y_TRUE, Y_PRED, S)
        assert rates.positive_rate[0] == pytest.approx(0.75)
        assert rates.positive_rate[1] == pytest.approx(0.5)

    def test_error_rates(self):
        rates = group_rates(Y_TRUE, Y_PRED, S)
        assert rates.fpr[0] == pytest.approx(0.5)
        assert rates.fnr[0] == pytest.approx(0.0)
        assert rates.fpr[1] == pytest.approx(0.5)
        assert rates.fnr[1] == pytest.approx(0.5)

    def test_counts(self):
        rates = group_rates(Y_TRUE, Y_PRED, S)
        assert rates.counts == {0: 4, 1: 4}

    def test_gap(self):
        rates = group_rates(Y_TRUE, Y_PRED, S)
        assert rates.gap("positive_rate") == pytest.approx(0.25)
        assert rates.gap("fpr") == pytest.approx(0.0)
        assert rates.gap("fnr") == pytest.approx(0.5)

    def test_gap_invalid_measure(self):
        rates = group_rates(Y_TRUE, Y_PRED, S)
        with pytest.raises(ValidationError, match="measure"):
            rates.gap("accuracy")

    def test_multigroup(self):
        s3 = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        rates = group_rates(Y_TRUE, Y_PRED, s3)
        assert set(rates.groups) == {0, 1, 2}

    def test_single_group_rejected(self):
        with pytest.raises(ValidationError, match="two groups"):
            group_rates(Y_TRUE, Y_PRED, np.zeros(8))


class TestGroupAuc:
    def test_keys(self, rng):
        y = rng.integers(0, 2, 100)
        y[:4] = [0, 1, 0, 1]
        scores = rng.random(100)
        s = np.repeat([0, 1], 50)
        out = group_auc(y, scores, s)
        assert set(out) == {0, 1, "any"}

    def test_perfect_scores(self):
        y = np.array([0, 1, 0, 1])
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        s = np.array([0, 0, 1, 1])
        out = group_auc(y, scores, s)
        assert out[0] == 1.0 and out[1] == 1.0 and out["any"] == 1.0

    def test_single_class_group_is_nan(self):
        y = np.array([1, 1, 0, 1])
        scores = np.array([0.6, 0.7, 0.1, 0.9])
        s = np.array([0, 0, 1, 1])
        out = group_auc(y, scores, s)
        assert np.isnan(out[0])
        assert not np.isnan(out["any"])
