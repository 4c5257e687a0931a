"""End-to-end support for more than two protected groups (§3.1).

"We allow more than two values for this attribute, going beyond the usual
binary model." The quantile graph, PFR, the fairness metrics, and Hardt
post-processing all support k > 2 groups; this module exercises the full
pipeline with three.
"""

import numpy as np
import pytest

from repro.baselines import EqualizedOddsPostProcessor
from repro.core import PFR
from repro.graphs import between_group_quantile_graph
from repro.metrics import (
    consistency,
    group_auc,
    group_rates,
    restrict_graph,
)
from repro.ml import LogisticRegression, StandardScaler, train_test_split


@pytest.fixture(scope="module")
def three_group_data():
    """Three groups, equal latent merit, group-shifted observed scores —
    the ML/PL-researcher scenario of §1.1 with a third community.

    The protected attribute is one-hot encoded: with a single integer
    column, no *linear* map can cancel a non-monotone per-group shift
    (0, +1.5, -1), so linear PFR needs the indicator columns to absorb it.
    """
    rng = np.random.default_rng(7)
    n_per_group = 120
    s = np.repeat([0, 1, 2], n_per_group)
    merit = rng.normal(size=3 * n_per_group)
    shift = np.array([0.0, 1.5, -1.0])[s]  # citation-culture offsets
    observed = merit + shift + rng.normal(0, 0.3, size=3 * n_per_group)
    other = rng.normal(size=(3 * n_per_group, 2))
    one_hot = np.eye(3)[s]
    X = np.column_stack([observed, other, one_hot])
    y = (merit + rng.normal(0, 0.4, size=3 * n_per_group) > 0).astype(int)
    return X, y, s, merit


class TestThreeGroupPipeline:
    def test_quantile_graph_is_tripartite(self, three_group_data):
        X, y, s, merit = three_group_data
        W = between_group_quantile_graph(merit, s, n_quantiles=5)
        rows, cols = W.nonzero()
        assert len(rows) > 0
        assert np.all(s[rows] != s[cols])

    def test_pfr_improves_three_way_parity(self, three_group_data):
        X, y, s, merit = three_group_data
        Xs = StandardScaler().fit_transform(X)
        indices = np.arange(len(y))
        train, test = train_test_split(indices, test_size=0.3, stratify=y, seed=0)
        W = between_group_quantile_graph(merit, s, n_quantiles=5)

        def evaluate(Z_train, Z_test):
            scaler = StandardScaler().fit(Z_train)
            clf = LogisticRegression().fit(scaler.transform(Z_train), y[train])
            pred = clf.predict(scaler.transform(Z_test))
            return group_rates(y[test], pred, s[test]).gap("positive_rate"), pred

        baseline_gap, _ = evaluate(Xs[train][:, :3], Xs[test][:, :3])
        model = PFR(n_components=2, gamma=1.0, exclude_columns=[3, 4, 5],
                    n_neighbors=6).fit(Xs[train], restrict_graph(W, train))
        pfr_gap, pfr_pred = evaluate(
            model.transform(Xs[train]), model.transform(Xs[test])
        )
        assert pfr_gap < baseline_gap
        assert consistency(pfr_pred, restrict_graph(W, test)) > 0.5

    def test_group_metrics_report_all_three(self, three_group_data):
        X, y, s, _ = three_group_data
        rng = np.random.default_rng(0)
        pred = np.where(rng.random(len(y)) < 0.15, 1 - y, y)
        rates = group_rates(y, pred, s)
        assert rates.groups == (0, 1, 2)
        aucs = group_auc(y, pred.astype(float), s)
        assert set(aucs) == {0, 1, 2, "any"}

    def test_hardt_equalizes_three_groups(self, three_group_data):
        X, y, s, _ = three_group_data
        rng = np.random.default_rng(1)
        # group-dependent error rates for the base predictor
        flip_rate = np.array([0.05, 0.3, 0.15])[s]
        base = np.where(rng.random(len(y)) < flip_rate, 1 - y, y)
        post = EqualizedOddsPostProcessor(seed=0).fit(y, base, s)
        assert len(post.mix_probabilities_) == 3
        fair = post.predict(base, s)
        assert group_rates(y, fair, s).gap("fpr") < group_rates(y, base, s).gap("fpr")
