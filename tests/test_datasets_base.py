"""Tests for repro.datasets.base — the Dataset container."""

import numpy as np
import pytest

from repro.datasets import Dataset
from repro.exceptions import DatasetError, ValidationError


@pytest.fixture
def dataset():
    return Dataset(
        name="toy",
        X=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [4.0, 1.0]]),
        y=np.array([0, 1, 0, 1]),
        s=np.array([0, 0, 1, 1]),
        feature_names=("score", "group"),
        protected_columns=(1,),
        side_information=np.array([1.0, 2.0, np.nan, 4.0]),
        side_information_name="rating",
    )


class TestConstruction:
    def test_basic_properties(self, dataset):
        assert dataset.n_samples == 4
        assert dataset.n_features == 2
        assert dataset.feature_names == ("score", "group")

    def test_group_sizes(self, dataset):
        assert dataset.group_sizes() == {0: 2, 1: 2}

    def test_base_rates(self, dataset):
        rates = dataset.base_rates()
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(0.5)

    def test_table1_row(self, dataset):
        row = dataset.table1_row()
        assert row["dataset"] == "toy"
        assert row["n"] == 4
        assert row["n_s0"] == 2 and row["n_s1"] == 2

    def test_nonprotected_view(self, dataset):
        view = dataset.nonprotected_view()
        np.testing.assert_allclose(view, dataset.X[:, :1])

    def test_frozen(self, dataset):
        with pytest.raises(Exception):
            dataset.name = "other"


class TestValidationErrors:
    def test_wrong_feature_name_count(self):
        with pytest.raises(DatasetError, match="feature names"):
            Dataset(
                name="bad",
                X=np.ones((2, 2)),
                y=np.array([0, 1]),
                s=np.array([0, 1]),
                feature_names=("only-one",),
                protected_columns=(),
            )

    def test_protected_column_out_of_range(self):
        with pytest.raises(DatasetError, match="out of range"):
            Dataset(
                name="bad",
                X=np.ones((2, 2)),
                y=np.array([0, 1]),
                s=np.array([0, 1]),
                feature_names=("a", "b"),
                protected_columns=(9,),
            )

    def test_non_binary_labels(self):
        with pytest.raises(ValidationError):
            Dataset(
                name="bad",
                X=np.ones((2, 1)),
                y=np.array([0, 7]),
                s=np.array([0, 1]),
                feature_names=("a",),
                protected_columns=(),
            )

    def test_side_information_length_mismatch(self):
        with pytest.raises(DatasetError, match="side information"):
            Dataset(
                name="bad",
                X=np.ones((2, 1)),
                y=np.array([0, 1]),
                s=np.array([0, 1]),
                feature_names=("a",),
                protected_columns=(),
                side_information=np.ones(5),
            )

    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            Dataset(
                name="bad",
                X=np.ones((3, 1)),
                y=np.array([0, 1]),
                s=np.array([0, 1, 0]),
                feature_names=("a",),
                protected_columns=(),
            )
