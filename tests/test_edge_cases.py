"""Cross-module edge cases and failure injection.

These tests push unusual-but-legal inputs through whole pipelines: tiny
datasets, empty or disconnected fairness graphs, degenerate folds, extreme
hyper-parameters — the situations a downstream user hits first.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import PFR, simulate_admissions
from repro.baselines import IFair, LFR, MaskedRepresentation
from repro.core import KernelPFR
from repro.experiments import ExperimentHarness
from repro.exceptions import ReproError, ValidationError
from repro.graphs import (
    between_group_quantile_graph,
    knn_graph,
    pairwise_judgment_graph,
)
from repro.metrics import consistency
from repro.ml import LogisticRegression, StratifiedKFold


class TestTinyInputs:
    def test_pfr_on_minimum_dataset(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        WF = pairwise_judgment_graph([(0, 1)], n=3)
        Z = PFR(n_components=1, n_neighbors=1).fit(X, WF).transform(X)
        assert Z.shape == (3, 1)
        assert np.all(np.isfinite(Z))

    def test_harness_on_tiny_dataset(self):
        data = simulate_admissions(25, seed=0)
        harness = ExperimentHarness(data, seed=0, n_components=2, n_neighbors=3)
        result = harness.run_method("pfr", gamma=0.5)
        assert np.isfinite(result.auc)

    def test_knn_two_points(self):
        W = knn_graph(np.array([[0.0], [1.0]]), n_neighbors=1)
        assert W[0, 1] > 0

    def test_logistic_regression_two_samples(self):
        model = LogisticRegression().fit(
            np.array([[0.0], [1.0]]), np.array([0, 1])
        )
        assert model.predict(np.array([[0.0], [1.0]])).tolist() == [0, 1]


class TestDegenerateGraphs:
    def test_pfr_with_fully_disconnected_wx(self, rng):
        # A binary graph over far-apart clusters can have many components.
        X = np.vstack([rng.normal(i * 100, 0.1, size=(5, 2)) for i in range(4)])
        WF = pairwise_judgment_graph([(0, 5), (10, 15)], n=20)
        Z = PFR(n_components=2, n_neighbors=2).fit(X, WF).transform(X)
        assert np.all(np.isfinite(Z))

    def test_consistency_on_isolated_nodes_only(self):
        assert consistency([0, 1, 1], sp.csr_matrix((3, 3))) == 1.0

    def test_quantile_graph_with_all_identical_scores(self):
        scores = np.ones(20)
        groups = np.repeat([0, 1], 10)
        W = between_group_quantile_graph(scores, groups, n_quantiles=4)
        # everyone in the same quantile -> complete bipartite graph
        assert W.nnz == 2 * 10 * 10

    def test_kernel_pfr_duplicate_points(self, rng):
        X = np.repeat(rng.normal(size=(5, 2)), 4, axis=0)
        WF = pairwise_judgment_graph([(0, 4)], n=20)
        model = KernelPFR(n_components=2, n_neighbors=3).fit(X, WF)
        assert np.all(np.isfinite(model.transform(X)))


class TestDegenerateLabels:
    def test_grid_search_with_rare_class(self):
        # The tuning grid search's 3-fold stratified CV with a class of
        # exactly 3 members: every training part keeps both classes.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        y = np.zeros(60, dtype=int)
        y[:3] = 1
        X[:3] += 5.0
        for train_idx, test_idx in StratifiedKFold(n_splits=3).split(X, y):
            assert set(y[train_idx].tolist()) == {0, 1}
            model = LogisticRegression().fit(X[train_idx], y[train_idx])
            assert model.score(X[test_idx], y[test_idx]) > 0.9

    def test_lfr_with_heavily_imbalanced_labels(self, rng):
        X = rng.normal(size=(80, 3))
        y = np.zeros(80, dtype=int)
        y[:8] = 1
        s = np.arange(80) % 2
        model = LFR(n_prototypes=4, max_iter=30, seed=0).fit(X, y, s=s)
        assert np.all(np.isfinite(model.transform(X)))


class TestExtremeHyperParameters:
    def test_pfr_gamma_endpoints(self, rng):
        X = rng.normal(size=(30, 4))
        WF = pairwise_judgment_graph([(0, 1)], n=30)
        for gamma in (0.0, 1.0):
            Z = PFR(n_components=2, gamma=gamma, n_neighbors=3).fit(X, WF).transform(X)
            assert np.all(np.isfinite(Z))

    def test_ifair_single_prototype(self, rng):
        X = rng.normal(size=(25, 3))
        model = IFair(n_prototypes=1, max_iter=20, seed=0).fit(X)
        Z = model.transform(X)
        # one prototype => every row maps to it exactly
        assert np.allclose(Z, Z[0], atol=1e-8)

    def test_logistic_regression_extreme_regularization(self, binary_problem):
        X, y = binary_problem
        model = LogisticRegression(C=1e-10).fit(X, y)
        assert np.linalg.norm(model.coef_) < 1e-3

    def test_masker_then_pfr_composition(self, rng):
        X = np.column_stack([rng.normal(size=(30, 3)), np.arange(30) % 2])
        masked = MaskedRepresentation(protected_columns=[3]).fit_transform(X)
        WF = pairwise_judgment_graph([(0, 1)], n=30)
        Z = PFR(n_components=2, n_neighbors=3).fit(masked, WF).transform(masked)
        assert Z.shape == (30, 2)


class TestErrorHierarchy:
    def test_all_library_errors_are_catchable_as_repro_error(self, rng):
        with pytest.raises(ReproError):
            PFR(gamma=7.0).fit(rng.normal(size=(5, 2)), sp.csr_matrix((5, 5)))
        with pytest.raises(ReproError):
            knn_graph(rng.normal(size=(5, 2)), n_neighbors=9)
        with pytest.raises(ReproError):
            LogisticRegression(C=-1.0).fit(rng.normal(size=(4, 2)), [0, 1, 0, 1])

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)


class TestHarnessRobustness:
    def test_two_harnesses_do_not_share_state(self):
        data = simulate_admissions(40, seed=0)
        a = ExperimentHarness(data, seed=1, n_components=2).prepare()
        b = ExperimentHarness(data, seed=2, n_components=2).prepare()
        assert not np.array_equal(a.train_idx, b.train_idx)

    def test_method_overrides_reach_the_estimator(self):
        data = simulate_admissions(60, seed=0)
        harness = ExperimentHarness(
            data,
            seed=0,
            n_components=2,
            method_overrides={"lfr": {"max_iter": 1, "n_prototypes": 3}},
        )
        result = harness.run_method("lfr")
        assert np.isfinite(result.auc)

    def test_explicit_params_beat_overrides(self):
        data = simulate_admissions(60, seed=0)
        harness = ExperimentHarness(
            data,
            seed=0,
            n_components=2,
            method_overrides={"ifair": {"max_iter": 200}},
        )
        # call-site max_iter must win; smoke-check it runs quickly/finitely
        result = harness.run_method("ifair", max_iter=2, n_prototypes=3)
        assert np.isfinite(result.auc)
