"""Tests for repro.graphs.stats — fairness-graph diagnostics."""

import numpy as np
import pytest

from repro.exceptions import GraphConstructionError
from repro.graphs import graph_summary


@pytest.fixture
def path_graph():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[1, 2] = W[2, 1] = 2.0
    return W


class TestGraphSummary:
    def test_basic_counts(self, path_graph):
        summary = graph_summary(path_graph)
        assert summary["n_nodes"] == 4
        assert summary["n_edges"] == 2
        assert summary["n_isolated"] == 1
        assert summary["n_components"] == 2  # path of 3 + isolated node
        assert summary["max_degree"] == 2

    def test_density(self, path_graph):
        assert graph_summary(path_graph)["density"] == pytest.approx(2 / 6)

    def test_cross_group_fraction_bipartite(self, quantile_graph_setup):
        scores, groups, W = quantile_graph_setup
        summary = graph_summary(W, groups=groups)
        # a between-group quantile graph has only cross-group edges
        assert summary["cross_group_fraction"] == 1.0

    def test_cross_group_fraction_mixed(self, path_graph):
        summary = graph_summary(path_graph, groups=[0, 0, 1, 1])
        assert summary["cross_group_fraction"] == pytest.approx(0.5)

    def test_cross_group_nan_for_empty_graph(self):
        summary = graph_summary(np.zeros((3, 3)), groups=[0, 1, 0])
        assert np.isnan(summary["cross_group_fraction"])

    def test_groups_length_checked(self, path_graph):
        with pytest.raises(GraphConstructionError, match="entries"):
            graph_summary(path_graph, groups=[0, 1])
