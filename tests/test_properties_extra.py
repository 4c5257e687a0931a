"""Additional hypothesis property tests across the library's core invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EqualizedOddsPostProcessor
from repro.core import PFR
from repro.graphs import (
    between_group_quantile_graph,
    equivalence_class_graph,
    knn_graph,
)
from repro.ml import train_test_split


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(10, 60),
    base_flip=st.floats(0.05, 0.45),
)
def test_hardt_lp_always_feasible_property(seed, n, base_flip):
    """For any base predictor with both classes in both groups, the
    equalized-odds LP is feasible and the expected post-processed TPR/FPR
    are exactly equal across groups."""
    rng = np.random.default_rng(seed)
    s = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    y = np.concatenate([
        np.tile([0, 1], n // 2 + 1)[:n],
        np.tile([0, 1], n // 2 + 1)[:n],
    ])
    flips = rng.random(2 * n) < base_flip
    y_pred = np.where(flips, 1 - y, y)
    # ensure both prediction values occur in each (group, class) cell is not
    # required — only both classes per group, which holds by construction.
    post = EqualizedOddsPostProcessor(seed=0).fit(y, y_pred, s)

    expected = {}
    for group in (0, 1):
        members = s == group
        p0, p1 = post.mix_probabilities_[group]
        base_tpr = y_pred[members & (y == 1)].mean()
        base_fpr = y_pred[members & (y == 0)].mean()
        expected[group] = (
            p1 * base_tpr + p0 * (1 - base_tpr),
            p1 * base_fpr + p0 * (1 - base_fpr),
        )
    assert expected[0][0] == pytest.approx(expected[1][0], abs=1e-6)
    assert expected[0][1] == pytest.approx(expected[1][1], abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), gamma=st.floats(0.0, 1.0))
def test_pfr_z_constraint_b_orthonormality_property(seed, gamma):
    """In the default constraint mode, ZᵀZ = I holds at any γ."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(35, 4))
    scores = rng.random(35)
    groups = np.arange(35) % 2
    WF = between_group_quantile_graph(scores, groups, n_quantiles=3)
    model = PFR(n_components=2, gamma=gamma, n_neighbors=4, ridge=0.0).fit(X, WF)
    Z = model.transform(X)
    np.testing.assert_allclose(Z.T @ Z, np.eye(2), atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(12, 80),
    test_size=st.floats(0.15, 0.5),
)
def test_train_test_split_stratification_property(seed, n, test_size):
    """Stratified splits keep each class within one sample of its quota."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    n_test = int(round(n * test_size))
    if n_test == 0 or n_test == n:
        return
    y_train, y_test = train_test_split(y, test_size=test_size,
                                       stratify=y, seed=seed)
    assert len(y_test) == n_test
    for value in (0, 1):
        quota = np.sum(y == value) * test_size
        assert abs(np.sum(y_test == value) - quota) <= 1.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
def test_knn_graph_summary_invariants_property(seed, k):
    """Any k-NN graph: symmetric, no isolated nodes, degree >= k."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(25, 3))
    W = knn_graph(X, n_neighbors=k)
    assert (W != W.T).nnz == 0
    degrees = np.asarray((W != 0).sum(axis=1)).ravel()
    assert degrees.min() >= k  # so no node is isolated
    assert sp.triu(W, k=1).nnz >= (25 * k) // 2


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 60),
    n_classes=st.integers(1, 6),
)
def test_equivalence_graph_component_structure_property(seed, n, n_classes):
    """An equivalence-class graph's non-trivial components are exactly the
    classes with >= 2 members."""
    rng = np.random.default_rng(seed)
    classes = rng.integers(0, n_classes, size=n)
    W = equivalence_class_graph(classes)
    values, counts = np.unique(classes, return_counts=True)
    n_nontrivial = int(np.sum(counts >= 2))
    n_singletons = int(np.sum(counts == 1))
    n_components, _ = connected_components(W, directed=False)
    degrees = np.asarray((W != 0).sum(axis=1)).ravel()
    assert n_components == n_nontrivial + n_singletons
    assert int(np.sum(degrees == 0)) == n_singletons
