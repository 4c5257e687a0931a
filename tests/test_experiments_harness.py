"""Tests for repro.experiments.harness — the paper's protocol."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.experiments import (
    ExperimentHarness,
    WorkloadFactory,
    make_workload,
    repeat_gamma_sweep,
    repeat_methods,
    within_group_ranking_scores,
)
from repro.metrics import consistency, restrict_graph
from repro.ml import LogisticRegression
from repro.store import RunLedger


@pytest.fixture
def harness(small_admissions):
    return ExperimentHarness(small_admissions, seed=0, n_components=2).prepare()


class TestPreparation:
    def test_split_is_partition(self, harness, small_admissions):
        joined = np.sort(np.concatenate([harness.train_idx, harness.test_idx]))
        np.testing.assert_array_equal(joined, np.arange(small_admissions.n_samples))

    def test_split_stratified(self, harness):
        train_rate = harness.y_train.mean()
        test_rate = harness.y_test.mean()
        assert abs(train_rate - test_rate) < 0.1

    def test_scaler_fit_on_train_only(self, harness, small_admissions):
        train_scaled = harness.X_train
        np.testing.assert_allclose(train_scaled.mean(axis=0), 0.0, atol=1e-10)

    def test_fairness_graph_covers_population(self, harness, small_admissions):
        assert harness.W_fair_full.shape == (
            small_admissions.n_samples,
            small_admissions.n_samples,
        )

    def test_train_graph_is_restriction(self, harness):
        expected = restrict_graph(harness.W_fair_full, harness.train_idx)
        assert (harness.W_fair_train != expected).nnz == 0

    def test_prepare_idempotent(self, harness):
        train_before = harness.train_idx.copy()
        harness.prepare()
        np.testing.assert_array_equal(harness.train_idx, train_before)

    def test_quantile_graph_cross_group_only(self, harness, small_admissions):
        rows, cols = harness.W_fair_full.nonzero()
        s = small_admissions.s
        assert np.all(s[rows] != s[cols])


class TestRunMethod:
    @pytest.mark.parametrize("method", ["original", "pfr", "original+"])
    def test_fast_methods_produce_valid_results(self, harness, method):
        result = harness.run_method(method, gamma=0.8)
        assert 0.0 <= result.auc <= 1.0
        assert 0.0 <= result.consistency_wx <= 1.0
        assert 0.0 <= result.consistency_wf <= 1.0
        assert result.method == method

    def test_ifair_and_lfr_run(self, harness):
        for method in ("ifair", "lfr"):
            result = harness.run_method(method, max_iter=5, n_prototypes=3)
            assert np.isfinite(result.auc)

    def test_hardt_runs(self, harness):
        result = harness.run_method("hardt")
        assert "expected_error" in result.extras
        assert 0.0 <= result.auc <= 1.0

    def test_kernel_pfr_runs(self, harness):
        result = harness.run_method("kpfr", gamma=0.8)
        assert np.isfinite(result.auc)
        assert result.method == "kpfr"

    def test_unknown_method(self, harness):
        with pytest.raises(ValidationError, match="unknown method"):
            harness.run_method("mystery")

    def test_summary_keys(self, harness):
        summary = harness.run_method("original").summary()
        assert set(summary) >= {
            "method",
            "auc",
            "consistency_wx",
            "consistency_wf",
            "parity_gap",
            "fpr_gap",
            "fnr_gap",
        }

    def test_run_methods_batch(self, harness):
        results = harness.run_methods(["original", "pfr"], gamma=0.5)
        assert set(results) == {"original", "pfr"}

    def test_deterministic(self, small_admissions):
        a = ExperimentHarness(small_admissions, seed=3, n_components=2)
        b = ExperimentHarness(small_admissions, seed=3, n_components=2)
        assert a.run_method("pfr").auc == b.run_method("pfr").auc

    @pytest.mark.parametrize("graph", ["W_x_test", "W_fair_test"])
    def test_graph_swapped_after_prepare_scores_later_cells(
        self, harness, graph
    ):
        # Elicited-graph workflows assign their own WF after prepare();
        # later cells, including a γ-free method already evaluated once,
        # must score consistency against the new graph.
        before = {m: harness.run_method(m) for m in ("original", "pfr")}
        predictions = []
        evaluate = harness._evaluate

        def spy(method, y_score, y_pred):
            predictions.append(y_pred)
            return evaluate(method, y_score, y_pred)

        harness._evaluate = spy
        n = len(harness.test_idx)
        W = np.random.default_rng(0).random((n, n))
        W = sp.csr_matrix(np.triu(W, 1) + np.triu(W, 1).T)
        setattr(harness, graph, W)
        field = "consistency_wx" if graph == "W_x_test" else "consistency_wf"
        for method in ("original", "pfr"):
            result = harness.run_method(method)
            assert getattr(result, field) == consistency(predictions[-1], W)
            assert getattr(result, field) != getattr(before[method], field)
        assert len(predictions) == 2


class TestGammaSweep:
    def test_sweep_length(self, harness):
        sweep = harness.gamma_sweep([0.0, 0.5, 1.0])
        assert len(sweep) == 3

    def test_synthetic_sweep_shapes(self, admissions):
        # The paper's Figure 4 claims on the full-size synthetic dataset.
        harness = ExperimentHarness(admissions, seed=0, n_components=2)
        sweep = harness.gamma_sweep([0.0, 0.9])
        assert sweep[1].consistency_wf > sweep[0].consistency_wf
        assert sweep[1].auc > sweep[0].auc

    def test_kpfr_plus_embedding_independent_of_cell_order(self):
        # kpfr+'s X_fit_ is the augmented training matrix. Augmenting anew
        # per cell handed later cells an equal copy, and K(copy, X) differs
        # in the last bits from K(X, X): a γ point's embedding depended on
        # whether a sweep ran it first.
        from repro.experiments import WorkloadFactory

        data = WorkloadFactory("synthetic", scale=0.1)(1)
        swept = ExperimentHarness(data, seed=1)
        swept.run_method("kpfr+", gamma=0.0)
        second = swept._representation("kpfr+", gamma=0.5, method_params={})
        fresh = ExperimentHarness(data, seed=1).prepare()
        first = fresh._representation("kpfr+", gamma=0.5, method_params={})
        for got, want in zip(second, first):
            assert got.tobytes() == want.tobytes()

    def test_plan_reuse_matches_fresh_harness(self, small_admissions):
        # The sweep reuses one cached SpectralFitPlan across γ points; the
        # results must be indistinguishable from refitting on a fresh
        # harness at each γ.
        warm = ExperimentHarness(small_admissions, seed=3, n_components=2)
        sweep = warm.gamma_sweep([0.2, 0.8], method="pfr")
        assert len(warm._plan_cache) == 1  # one structural config, shared
        for gamma, result in zip([0.2, 0.8], sweep):
            fresh = ExperimentHarness(small_admissions, seed=3, n_components=2)
            assert fresh.run_method("pfr", gamma=gamma).auc == result.auc


class TestTune:
    def test_grid_search_returns_best(self, harness):
        out = harness.tune(
            "pfr", {"gamma": [0.1, 0.9], "C": [1.0]}, n_splits=3
        )
        assert out["best_params"]["gamma"] in (0.1, 0.9)
        assert len(out["results"]) == 2
        assert out["best_score"] >= max(
            r["mean_score"] for r in out["results"]
        ) - 1e-12

    def test_tune_original(self, harness):
        out = harness.tune("original", {"C": [0.1, 10.0]}, n_splits=3)
        assert "C" in out["best_params"]

    def test_tune_rejects_hardt(self, harness):
        with pytest.raises(ValidationError, match="does not support"):
            harness.tune("hardt", {"C": [1.0]})

    @pytest.mark.parametrize("method", ["pfr+", "original+"])
    def test_tune_rejects_augmented_methods(self, harness, method):
        # The folds never apply the "+" augmentation, so a "+" method used
        # to return (and ledger) its base method's score.
        with pytest.raises(
            ValidationError, match="use one of original/pfr/ifair/lfr"
        ):
            harness.tune(method, {"gamma": [0.5], "C": [1.0]}, n_splits=3)


    def test_unknown_scoring_rejected_before_any_fit(self, harness, monkeypatch):
        # The scoring used to be checked inside the first fold, after the
        # representation and the classifier were fitted (in a worker, with
        # workers set).
        def fit(*args, **kwargs):
            raise AssertionError("a classifier was fitted")

        monkeypatch.setattr(LogisticRegression, "fit", fit)
        with pytest.raises(ValidationError, match="unknown scoring 'bogus'"):
            harness.tune("original", {"C": [1.0]}, n_splits=3, scoring="bogus")

    def test_folds_score_the_overridden_model(self):
        # Tune folds used to build lfr without the harness's overrides, so
        # they scored another model than the cell then ran.
        data = make_workload("synthetic", seed=0, scale=0.3)

        def best(grid, overrides=None):
            harness = ExperimentHarness(data, seed=0, method_overrides=overrides)
            out = harness.tune("lfr", grid, n_splits=3)
            assert not any(key[0] == "fold" for key in harness._plan_cache)
            return out["best_score"]

        overridden = best({"C": [1.0]}, {"lfr": {"a_z": 50, "a_x": 0}})
        assert overridden == best({"a_z": [50], "a_x": [0], "C": [1.0]})
        assert overridden != best({"C": [1.0]})

    def test_tuned_point_task_holds_the_merged_params(self, tmp_path):
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.2), seed=0,
            n_components=2, method_overrides={"lfr": {"a_z": 50.0}},
            store=tmp_path,
        )
        harness.tune("lfr", {"max_iter": [5], "C": [1.0]}, n_splits=2)
        (entry,) = RunLedger(tmp_path).ls(kind="tuned_point")
        assert entry.task["params"] == {"a_z": 50.0, "max_iter": 5, "C": 1.0}


@pytest.mark.parametrize("key", ["bogus", "n_neighbors"])
class TestMethodParamCheck:
    """An unknown key and a key the harness sets itself (pfr's n_neighbors)
    raise a ValidationError naming the key from every entry point; they
    used to raise a bare TypeError from the estimator's constructor."""

    @staticmethod
    def _raises(key):
        return pytest.raises(
            ValidationError, match=re.escape(f"sets unknown keys ['{key}']")
        )

    def test_method_overrides(self, small_admissions, key):
        with self._raises(key):
            ExperimentHarness(small_admissions,
                              method_overrides={"pfr": {key: 3}})

    def test_run_method_run_methods_gamma_sweep(self, harness, key):
        with self._raises(key):
            harness.run_method("pfr", **{key: 3})
        with self._raises(key):
            harness.run_methods(["original", "pfr"], **{key: 3})
        with self._raises(key):
            harness.gamma_sweep([0.5], method="pfr", **{key: 3})

    def test_repeat(self, key):
        factory = WorkloadFactory("synthetic", scale=0.2)
        with self._raises(key):
            repeat_gamma_sweep(factory, [0.5], seeds=(0, 1), **{key: 3})
        with self._raises(key):
            repeat_methods(factory, ("pfr",), seeds=(0, 1), harness_kwargs={
                "method_overrides": {"pfr": {key: 3}}
            })

    def test_tune_grid(self, harness, key):
        with self._raises(key):
            harness.tune("pfr", {key: [3], "gamma": [0.5]}, n_splits=3)

    def test_export_model(self, small_admissions, tmp_path, key):
        harness = ExperimentHarness(small_admissions, store=tmp_path)
        with self._raises(key):
            harness.export_model("pfr", **{key: 3})


class TestMethodOverridesShape:
    """Overrides of the wrong shape raise a ValidationError naming the
    field; they used to escape as a bare TypeError or AttributeError, or
    as "sets unknown keys [('a_z', 50)]" for a list of pairs."""

    @pytest.mark.parametrize("overrides, field", [
        ({"lfr": 3}, "method_overrides['lfr']"),
        ({"lfr": [("a_z", 50)]}, "method_overrides['lfr']"),
        (3, "method_overrides"),
        ([("lfr", {"a_z": 50})], "method_overrides"),
    ], ids=["int-params", "pair-list-params", "int", "pair-list"])
    def test_non_mapping_rejected(self, small_admissions, overrides, field):
        with pytest.raises(
            ValidationError, match=re.escape(f"{field} must be a mapping")
        ):
            ExperimentHarness(small_admissions, method_overrides=overrides)


class TestRankingScores:
    def test_scores_in_unit_interval(self, binary_problem):
        X, y = binary_problem
        s = np.arange(len(y)) % 2
        scores = within_group_ranking_scores(X, y, s)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_rankings_are_within_group(self, rng):
        # Shifting one group's features must not change the other group's
        # scores at all.
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, 60)
        y[:4] = [0, 1, 0, 1]
        s = np.repeat([0, 1], 30)
        base = within_group_ranking_scores(X, y, s)
        X_shifted = X.copy()
        X_shifted[s == 1] += 100.0
        shifted = within_group_ranking_scores(X_shifted, y, s)
        np.testing.assert_allclose(base[s == 0], shifted[s == 0])


class TestLandmarkHarness:
    """The harness's landmark-Nyström switch (landmarks=...)."""

    @pytest.fixture(scope="class")
    def landmark_harness(self):
        from repro.datasets import simulate_blobs

        data = simulate_blobs(300, n_features=5, seed=4)
        return ExperimentHarness(data, landmarks=60, seed=0)

    def test_pfr_runs_with_landmarks(self, landmark_harness):
        result = landmark_harness.run_method("pfr", gamma=0.5)
        assert 0.0 <= result.auc <= 1.0
        assert result.dataset == "blobs"

    def test_kpfr_runs_with_landmarks(self, landmark_harness):
        result = landmark_harness.run_method("kpfr", gamma=0.5)
        assert 0.0 <= result.auc <= 1.0

    def test_gamma_sweep_reuses_landmark_plan(self, landmark_harness):
        results = landmark_harness.gamma_sweep([0.0, 1.0], method="pfr")
        assert len(results) == 2
        # One landmark plan per structural configuration in the cache.
        landmark_keys = [
            key
            for key in landmark_harness._plan_cache
            if key[0] == "pfr" and key[3] == "nystrom"
        ]
        assert len(landmark_keys) == 1

    def test_landmarks_clamp_to_training_size(self):
        from repro.datasets import simulate_blobs

        data = simulate_blobs(80, n_features=4, seed=1)
        harness = ExperimentHarness(data, landmarks=10_000, seed=0)
        result = harness.run_method("pfr", gamma=0.5)
        assert 0.0 <= result.auc <= 1.0

    def test_tune_with_landmarks(self, landmark_harness):
        out = landmark_harness.tune(
            "pfr", {"gamma": [0.0, 1.0]}, n_splits=2
        )
        assert "gamma" in out["best_params"]


class TestBuildFitPlanLandmarks:
    def test_landmark_plan_dispatch(self):
        from repro.core import LandmarkPlan, SpectralFitPlan
        from repro.datasets import simulate_blobs
        from repro.experiments.builders import build_fit_plan

        data = simulate_blobs(200, n_features=4, seed=2)
        exact = build_fit_plan(data)
        assert isinstance(exact, SpectralFitPlan)
        landmark = build_fit_plan(data, landmarks=50)
        assert isinstance(landmark, LandmarkPlan)
        eigenvalues, V = landmark.solve(0.5, 2)
        assert eigenvalues.shape == (2,) and V.shape[1] == 2
