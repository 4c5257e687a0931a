"""Fairness evaluation measures (paper §4.1).

Individual fairness: :func:`consistency` against ``WX`` or ``WF``.
Group fairness: per-group positive-prediction and error rates with their
max-min gaps (:func:`group_rates`), per-group AUC.
"""

from .group import GroupRates, group_auc, group_rates
from .individual import consistency, restrict_graph

__all__ = [
    "GroupRates",
    "group_auc",
    "group_rates",
    "consistency",
    "restrict_graph",
]
