"""Tests for repro.experiments.pareto and repro.experiments.repetition."""

import numpy as np
import pytest

from repro.datasets import simulate_admissions
from repro.exceptions import ValidationError
from repro.experiments import (
    AggregateResult,
    ExperimentHarness,
    pareto_front,
    repeat_methods,
    tradeoff_frontier,
)


class TestParetoFront:
    def test_simple_dominance(self):
        points = [(1.0, 1.0), (0.5, 0.5), (1.0, 0.2), (0.2, 1.0)]
        assert pareto_front(points) == [0]

    def test_incomparable_points_all_kept(self):
        points = [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]
        assert pareto_front(points) == [0, 1, 2]

    def test_minimize_direction(self):
        points = [(1.0, 5.0), (2.0, 1.0)]
        # maximize first, minimize second: (2, 1) dominates (1, 5)
        assert pareto_front(points, maximize=(True, False)) == [1]
        # minimize both: incomparable — each wins one objective
        assert pareto_front(points, maximize=(False, False)) == [0, 1]

    def test_duplicates_kept(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        assert pareto_front(points) == [0, 1]

    def test_three_objectives(self):
        points = [(1, 1, 1), (1, 1, 0), (0, 2, 1)]
        assert pareto_front(points, maximize=(True, True, True)) == [0, 2]

    def test_direction_count_checked(self):
        with pytest.raises(ValidationError, match="directions"):
            pareto_front([(1.0, 2.0)], maximize=(True,))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            pareto_front([(float("nan"), 1.0)])


class TestTradeoffFrontier:
    def test_frontier_subset_and_sorted(self, small_admissions):
        harness = ExperimentHarness(small_admissions, seed=0, n_components=2)
        out = tradeoff_frontier(
            harness, "pfr", grid={"gamma": [0.0, 0.5, 1.0]}
        )
        assert len(out["results"]) == 3
        assert 1 <= len(out["frontier"]) <= 3
        aucs = [r.auc for _, r in out["frontier"]]
        assert aucs == sorted(aucs)

    def test_frontier_points_not_dominated(self, small_admissions):
        harness = ExperimentHarness(small_admissions, seed=0, n_components=2)
        out = tradeoff_frontier(harness, "pfr", grid={"gamma": [0.0, 1.0]})
        for _, candidate in out["frontier"]:
            for _, other in out["results"]:
                strictly_better = (
                    other.auc > candidate.auc
                    and other.consistency_wf > candidate.consistency_wf
                )
                assert not strictly_better

    def test_unknown_objective(self, small_admissions):
        harness = ExperimentHarness(small_admissions, seed=0, n_components=2)
        with pytest.raises(ValidationError, match="objective"):
            tradeoff_frontier(harness, "pfr", objectives=("auc", "magic"))


class TestRepetition:
    def test_aggregates_across_seeds(self):
        (aggregate,) = repeat_methods(
            lambda seed: simulate_admissions(60, seed=seed),
            ("pfr",),
            seeds=(0, 1, 2),
            gamma=0.9,
            harness_kwargs={"n_components": 2},
        ).values()
        assert isinstance(aggregate, AggregateResult)
        assert aggregate.n_runs == 3
        assert 0.0 <= aggregate.mean["auc"] <= 1.0
        assert aggregate.std["auc"] >= 0.0

    def test_format(self):
        aggregate = repeat_methods(
            lambda seed: simulate_admissions(50, seed=seed),
            ("original",),
            seeds=(0, 1),
            harness_kwargs={"n_components": 2},
        )["original"]
        text = aggregate.format("auc")
        assert "±" in text
        with pytest.raises(ValidationError, match="unknown metric"):
            aggregate.format("magic")

    def test_repeat_gamma_sweep(self):
        from repro.experiments import repeat_gamma_sweep

        out = repeat_gamma_sweep(
            lambda seed: simulate_admissions(60, seed=seed),
            [0.1, 0.9],
            seeds=(0, 1),
            harness_kwargs={"n_components": 2},
        )
        assert list(out) == [0.1, 0.9]
        assert all(a.n_runs == 2 for a in out.values())
        # Per-γ aggregates must match sweeping each γ independently.
        solo = repeat_methods(
            lambda seed: simulate_admissions(60, seed=seed),
            ("pfr",),
            seeds=(0, 1),
            gamma=0.9,
            harness_kwargs={"n_components": 2},
        )["pfr"]
        assert out[0.9].mean["auc"] == solo.mean["auc"]

    def test_repeat_gamma_sweep_validation(self):
        from repro.experiments import repeat_gamma_sweep

        with pytest.raises(ValidationError, match="two seeds"):
            repeat_gamma_sweep(
                lambda seed: simulate_admissions(40, seed=seed),
                [0.5],
                seeds=(0,),
            )
        with pytest.raises(ValidationError, match="gamma"):
            repeat_gamma_sweep(
                lambda seed: simulate_admissions(40, seed=seed),
                [],
                seeds=(0, 1),
            )
        with pytest.raises(ValidationError, match="duplicates"):
            repeat_gamma_sweep(
                lambda seed: simulate_admissions(40, seed=seed),
                [0.5, 0.5],
                seeds=(0, 1),
            )

    def test_repeat_methods_shares_datasets(self):
        out = repeat_methods(
            lambda seed: simulate_admissions(50, seed=seed),
            ("original", "pfr"),
            seeds=(0, 1),
            gamma=0.9,
            harness_kwargs={"n_components": 2},
        )
        assert set(out) == {"original", "pfr"}
        assert all(a.n_runs == 2 for a in out.values())

    def test_requires_multiple_seeds(self):
        with pytest.raises(ValidationError, match="two seeds"):
            repeat_methods(
                lambda seed: simulate_admissions(40, seed=seed),
                ("original",),
                seeds=(0,),
            )
