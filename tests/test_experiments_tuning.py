"""Tests for repro.experiments.tuning — the §4.1 grid-search protocol."""

import pytest

from repro.exceptions import ValidationError
from repro.experiments import ExperimentHarness, default_grid, tune_methods


@pytest.fixture
def harness(small_admissions):
    return ExperimentHarness(small_admissions, seed=0, n_components=2)


class TestDefaultGrid:
    def test_known_methods(self):
        for method in ("original", "pfr", "ifair", "lfr"):
            grid = default_grid(method)
            assert grid and all(isinstance(v, list) for v in grid.values())

    def test_plus_suffix_accepted(self):
        assert default_grid("pfr") == default_grid("pfr+")

    def test_returns_copy(self):
        grid = default_grid("pfr")
        grid["gamma"].append(99.0)
        assert 99.0 not in default_grid("pfr")["gamma"]

    def test_unknown_method(self):
        with pytest.raises(ValidationError, match="no default grid"):
            default_grid("hardt")


class TestTuneMethods:
    def test_tunes_requested_methods(self, harness):
        out = tune_methods(
            harness,
            methods=("original", "pfr"),
            grids={
                "original": {"C": [0.1, 1.0]},
                "pfr": {"gamma": [0.0, 0.9], "C": [1.0]},
            },
            n_splits=3,
        )
        assert set(out) == {"original", "pfr"}
        for tuned in out.values():
            assert "best_params" in tuned
            assert tuned["best_score"] > 0.5

    def test_pfr_prefers_high_gamma_on_synthetic(self, admissions):
        # On the synthetic workload the fairness graph matches ground truth,
        # so the tuning protocol itself should discover that high γ wins.
        harness = ExperimentHarness(admissions, seed=0, n_components=2)
        out = tune_methods(
            harness,
            methods=("pfr",),
            grids={"pfr": {"gamma": [0.0, 0.9], "C": [1.0]}},
            n_splits=3,
        )
        assert out["pfr"]["best_params"]["gamma"] == 0.9
