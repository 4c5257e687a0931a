"""Tests for repro.metrics.individual — the consistency measure."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.metrics import consistency, restrict_graph
from repro.metrics.individual import _consistency_edges, _consistency_from_edges


def graph(*edges, n):
    W = np.zeros((n, n))
    for i, j, w in edges:
        W[i, j] = W[j, i] = w
    return W


class TestConsistency:
    def test_perfect_agreement(self):
        W = graph((0, 1, 1.0), (1, 2, 1.0), n=3)
        assert consistency([1, 1, 1], W) == 1.0

    def test_total_disagreement(self):
        W = graph((0, 1, 1.0), n=2)
        assert consistency([0, 1], W) == 0.0

    def test_hand_computed_mixed_case(self):
        # edges: (0,1) w=1 agree, (1,2) w=1 disagree -> 1 - 1/2
        W = graph((0, 1, 1.0), (1, 2, 1.0), n=3)
        assert consistency([0, 0, 1], W) == pytest.approx(0.5)

    def test_weighted_edges(self):
        # disagreement on the heavy edge counts more
        W = graph((0, 1, 3.0), (1, 2, 1.0), n=3)
        assert consistency([0, 1, 1], W) == pytest.approx(1 - 3 / 4)

    def test_soft_predictions(self):
        W = graph((0, 1, 1.0), n=2)
        assert consistency([0.25, 0.75], W) == pytest.approx(0.5)

    def test_empty_graph_is_one(self):
        assert consistency([0, 1, 0], np.zeros((3, 3))) == 1.0

    def test_diagonal_ignored(self):
        W = graph((0, 1, 1.0), n=2)
        W[0, 0] = 5.0
        W[1, 1] = 5.0
        assert consistency([0, 1], W) == 0.0

    def test_sparse_and_dense_agree(self, rng):
        W = rng.random((10, 10))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 0.0)
        y = rng.integers(0, 2, 10)
        assert consistency(y, W) == pytest.approx(
            consistency(y, sp.csr_matrix(W))
        )

    def test_out_of_range_predictions_rejected(self):
        W = graph((0, 1, 1.0), n=2)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            consistency([0.0, 1.5], W)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError, match="nodes"):
            consistency([0, 1], np.zeros((3, 3)))

    def test_negative_weights_rejected(self):
        W = graph((0, 1, -1.0), n=2)
        with pytest.raises(ValidationError, match="non-negative"):
            consistency([0, 1], W)

    def test_prepared_edges_score_like_the_graph(self, rng):
        W = rng.random((12, 12))
        W = 0.5 * (W + W.T)
        edges = _consistency_edges(sp.csr_matrix(W))
        for _ in range(5):
            y = rng.random(12)
            assert _consistency_from_edges(y, edges) == consistency(y, W)

    def test_prepared_edges_keep_every_check(self):
        with pytest.raises(ValidationError, match="nodes"):
            _consistency_from_edges([0, 1], _consistency_edges(np.zeros((3, 3))))
        negative = _consistency_edges(graph((0, 1, -1.0), n=2))
        with pytest.raises(ValidationError, match="non-negative"):
            _consistency_from_edges([0, 1], negative)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            _consistency_from_edges([0, 2], negative)
        empty = _consistency_edges(np.zeros((3, 3)))
        assert _consistency_from_edges([0, 1, 0], empty) == 1.0
        with pytest.raises(ValidationError, match="symmetric"):
            _consistency_edges(np.triu(np.ones((3, 3))))


class TestRestrictGraph:
    def test_extracts_block(self):
        W = graph((0, 1, 1.0), (2, 3, 1.0), (0, 3, 1.0), n=4)
        sub = restrict_graph(W, [0, 3]).toarray()
        np.testing.assert_allclose(sub, [[0.0, 1.0], [1.0, 0.0]])

    def test_preserves_sparsity(self, rng):
        W = sp.random(50, 50, density=0.05, random_state=0)
        W = W + W.T
        sub = restrict_graph(W, np.arange(10))
        assert sp.issparse(sub)
        assert sub.shape == (10, 10)

    def test_empty_indices(self):
        sub = restrict_graph(np.zeros((4, 4)), [])
        assert sub.shape == (0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            restrict_graph(np.zeros((3, 3)), [5])

    def test_2d_indices_rejected(self):
        with pytest.raises(ValidationError, match="1-D"):
            restrict_graph(np.zeros((3, 3)), [[0, 1]])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 25),
)
def test_consistency_bounds_property(seed, n):
    """Consistency is always in [0, 1] for any graph and predictions."""
    rng = np.random.default_rng(seed)
    W = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    y = rng.integers(0, 2, n)
    value = consistency(y, W)
    assert 0.0 <= value <= 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_consistency_complement_property(seed):
    """Flipping all binary predictions leaves consistency unchanged."""
    rng = np.random.default_rng(seed)
    n = 12
    W = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    y = rng.integers(0, 2, n)
    assert consistency(y, W) == pytest.approx(consistency(1 - y, W))
