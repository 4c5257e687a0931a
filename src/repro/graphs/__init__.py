"""Similarity and fairness graphs (paper §3.1–3.2).

* :func:`knn_graph` builds the data-driven heat-kernel graph ``WX``.
* :func:`equivalence_class_graph` and :func:`between_group_quantile_graph`
  build the fairness graph ``WF`` for comparable and incomparable
  individuals respectively.
* :mod:`repro.graphs.laplacian` holds the Laplacian machinery the PFR
  optimization consumes.
"""

from .elicitation import (
    equivalence_classes_from_pairs,
    likert_judgments,
    noisy_pairwise_judgments,
)
from .fairness import (
    between_group_quantile_graph,
    equivalence_class_graph,
    pairwise_judgment_graph,
)
from .knn import (
    knn_cross,
    knn_graph,
    median_heuristic,
    pairwise_sq_distances,
    resolve_bandwidth,
)
from .laplacian import (
    combine_laplacians,
    edge_count,
    graph_density,
    laplacian,
)
from .quantiles import quantile_bucket, within_group_quantiles

__all__ = [
    "equivalence_classes_from_pairs",
    "likert_judgments",
    "noisy_pairwise_judgments",
    "between_group_quantile_graph",
    "equivalence_class_graph",
    "pairwise_judgment_graph",
    "knn_cross",
    "knn_graph",
    "median_heuristic",
    "pairwise_sq_distances",
    "resolve_bandwidth",
    "combine_laplacians",
    "edge_count",
    "graph_density",
    "laplacian",
    "quantile_bucket",
    "within_group_quantiles",
]
