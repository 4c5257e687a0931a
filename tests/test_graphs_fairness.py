"""Tests for repro.graphs.fairness — WF constructions (Definitions 1-3)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphConstructionError
from repro.graphs import (
    between_group_quantile_graph,
    edge_count,
    equivalence_class_graph,
    pairwise_judgment_graph,
)


class TestEquivalenceClassGraph:
    def test_cliques_per_class(self):
        classes = np.array([0, 0, 0, 1, 1, 2])
        W = equivalence_class_graph(classes).toarray()
        # class 0: triangle, class 1: single edge, class 2: isolated
        assert W[0, 1] == W[0, 2] == W[1, 2] == 1.0
        assert W[3, 4] == 1.0
        assert W[5].sum() == 0.0

    def test_no_edges_between_classes(self):
        classes = np.array([0, 0, 1, 1])
        W = equivalence_class_graph(classes).toarray()
        assert W[0, 2] == W[0, 3] == W[1, 2] == W[1, 3] == 0.0

    def test_symmetric_zero_diagonal(self):
        W = equivalence_class_graph(np.array([0, 0, 1, 1, 0]))
        assert (abs(W - W.T)).nnz == 0
        assert np.all(W.diagonal() == 0.0)

    def test_edge_count(self):
        classes = np.array([7] * 5)  # K5 has 10 edges
        assert edge_count(equivalence_class_graph(classes)) == 10

    def test_mask_excludes_individuals(self):
        classes = np.array([0, 0, 0, 0])
        mask = np.array([True, True, False, True])
        W = equivalence_class_graph(classes, mask=mask).toarray()
        assert W[2].sum() == 0.0
        assert W[0, 1] == 1.0 and W[0, 3] == 1.0

    def test_string_classes(self):
        W = equivalence_class_graph(np.array(["a", "b", "a"]))
        assert W[0, 2] == 1.0
        assert W[0, 1] == 0.0

    def test_mask_length_mismatch(self):
        with pytest.raises(GraphConstructionError, match="mask"):
            equivalence_class_graph(np.array([0, 1]), mask=np.array([True]))

    def test_all_singletons_empty_graph(self):
        W = equivalence_class_graph(np.arange(5))
        assert W.nnz == 0


class TestBetweenGroupQuantileGraph:
    def test_cross_group_only(self, quantile_graph_setup):
        scores, groups, W = quantile_graph_setup
        rows, cols = W.nonzero()
        assert np.all(groups[rows] != groups[cols])

    def test_same_quantile_only(self, quantile_graph_setup):
        scores, groups, W = quantile_graph_setup
        from repro.graphs import within_group_quantiles

        buckets = within_group_quantiles(scores, groups, 4)
        rows, cols = W.nonzero()
        np.testing.assert_array_equal(buckets[rows], buckets[cols])

    def test_bipartite_complete_per_bucket(self):
        # 4 per group, 2 quantiles -> each bucket has 2x2 cross edges.
        scores = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        W = between_group_quantile_graph(scores, groups, n_quantiles=2)
        assert edge_count(W) == 8

    def test_symmetric_binary(self, quantile_graph_setup):
        _, _, W = quantile_graph_setup
        assert (abs(W - W.T)).nnz == 0
        assert set(np.unique(W.data)) == {1.0}

    def test_mask_respected(self):
        scores = np.array([1.0, 2.0, 1.0, 2.0])
        groups = np.array([0, 0, 1, 1])
        mask = np.array([True, True, True, False])
        W = between_group_quantile_graph(scores, groups, n_quantiles=2, mask=mask)
        assert W.toarray()[3].sum() == 0.0

    def test_single_group_rejected(self):
        with pytest.raises(GraphConstructionError, match="two groups"):
            between_group_quantile_graph([1.0, 2.0], [0, 0], n_quantiles=2)

    def test_three_groups_multipartite(self):
        scores = np.tile([1.0, 2.0], 3)
        groups = np.repeat([0, 1, 2], 2)
        W = between_group_quantile_graph(scores, groups, n_quantiles=2)
        rows, cols = W.nonzero()
        assert np.all(groups[rows] != groups[cols])
        # each bucket: 3 individuals from 3 different groups -> triangle
        assert edge_count(W) == 6

    def test_length_mismatch(self):
        with pytest.raises(GraphConstructionError, match="align"):
            between_group_quantile_graph([1.0], [0, 1], n_quantiles=2)


class TestPairwiseJudgmentGraph:
    def test_basic(self):
        W = pairwise_judgment_graph([(0, 1), (2, 3)], n=5)
        assert W[0, 1] == 1.0 and W[1, 0] == 1.0
        assert W[2, 3] == 1.0
        assert edge_count(W) == 2

    def test_duplicate_pairs_collapse(self):
        W = pairwise_judgment_graph([(0, 1), (1, 0), (0, 1)], n=3)
        assert edge_count(W) == 1
        assert W.max() == 1.0

    def test_empty(self):
        assert pairwise_judgment_graph([], n=4).nnz == 0

    def test_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            pairwise_judgment_graph([(0, 9)], n=5)

    def test_self_pairs_rejected(self):
        with pytest.raises(GraphConstructionError, match="self-pairs"):
            pairwise_judgment_graph([(1, 1)], n=3)

    def test_bad_shape(self):
        with pytest.raises(GraphConstructionError, match="shape"):
            pairwise_judgment_graph([(0, 1, 2)], n=5)
