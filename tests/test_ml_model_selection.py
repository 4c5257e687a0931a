"""Tests for repro.ml.model_selection — splits, stratified folds, parameter grids."""

import numpy as np
import pytest

from repro.datasets import simulate_admissions
from repro.exceptions import ValidationError
from repro.ml import ParameterGrid, StratifiedKFold, train_test_split


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(100).reshape(50, 2)
        X_train, X_test = train_test_split(X, test_size=0.3, seed=0)
        assert len(X_test) == 15
        assert len(X_train) == 35

    def test_partition_covers_everything(self):
        X = np.arange(40)
        a, b = train_test_split(X, test_size=0.25, seed=1)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(40))

    def test_multiple_arrays_aligned(self):
        X = np.arange(60).reshape(30, 2)
        y = np.arange(30)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.2, seed=2)
        np.testing.assert_array_equal(X_train[:, 0] // 2, y_train)
        np.testing.assert_array_equal(X_test[:, 0] // 2, y_test)

    def test_stratified_preserves_rates(self):
        y = np.array([0] * 80 + [1] * 20)
        y_train, y_test = train_test_split(y, test_size=0.25, stratify=y, seed=3)
        assert y_test.mean() == pytest.approx(0.2, abs=0.01)
        assert len(y_test) == 25

    def test_joint_label_group_cells_stay_proportional(self):
        # The paper's protocol stratifies on the joint (y, s): a per-row
        # cell code as stratify= puts every cell within one row of its
        # proportional share, at an exact test size.
        data = simulate_admissions(400, seed=21)
        cells = 2 * data.y + data.s
        indices = np.arange(data.n_samples)
        _, test = train_test_split(
            indices, test_size=0.25, stratify=cells, seed=3
        )
        assert len(test) == round(0.25 * data.n_samples)
        for cell in np.unique(cells):
            share = 0.25 * np.sum(cells == cell)
            assert abs(np.sum(cells[test] == cell) - share) < 1.0, cell

    def test_deterministic_given_seed(self):
        X = np.arange(30)
        a1, b1 = train_test_split(X, test_size=0.5, seed=9)
        a2, b2 = train_test_split(X, test_size=0.5, seed=9)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_invalid_test_size(self):
        with pytest.raises(ValidationError):
            train_test_split(np.arange(10), test_size=1.5)

    def test_empty_split_rejected(self):
        with pytest.raises(ValidationError):
            train_test_split(np.arange(3), test_size=0.01)


class TestStratifiedKFold:
    def test_class_balance_per_fold(self):
        y = np.array([0] * 40 + [1] * 10)
        for _, test_idx in StratifiedKFold(n_splits=5).split(np.zeros(50), y):
            assert np.sum(y[test_idx] == 1) == 2
            assert np.sum(y[test_idx] == 0) == 8

    def test_partition(self):
        y = np.array([0, 1] * 15)
        seen = []
        for _, test_idx in StratifiedKFold(n_splits=3).split(np.zeros(30), y):
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(30))

    def test_rare_class_rejected(self):
        y = np.array([0] * 28 + [1] * 2)
        with pytest.raises(ValidationError, match="only"):
            list(StratifiedKFold(n_splits=5).split(np.zeros(30), y))


class TestParameterGrid:
    def test_product(self):
        grid = list(ParameterGrid({"a": [1, 2], "b": [3, 4]}))
        assert len(grid) == 4
        assert {"a": 1, "b": 3} in grid

    def test_len(self):
        assert len(ParameterGrid({"a": [1, 2, 3], "b": [1]})) == 3

    def test_list_of_grids(self):
        grid = list(ParameterGrid([{"a": [1]}, {"b": [2, 3]}]))
        assert len(grid) == 3

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            ParameterGrid({"a": []})

    def test_scalar_values_rejected(self):
        with pytest.raises(ValidationError, match="sequences"):
            ParameterGrid({"a": 1})
