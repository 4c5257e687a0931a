"""Group-fairness measures (paper §4.1).

The paper reports two group-fairness views:

* **Disparate impact / demographic parity** — per-group rates of positive
  predictions ``P(ŷ=1 | s)`` (Figures 3a, 6a, 9a).
* **Disparate mistreatment / equalized odds** — per-group error rates FPR
  and FNR (Figures 3b, 6b, 9b).

Everything here is computed per group value (supporting more than two
groups, as §3.1 allows); :meth:`GroupRates.gap` gives the max-min spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_binary_labels, check_consistent_length, column_or_1d
from ..exceptions import ValidationError
from ..ml.metrics import (
    false_negative_rate,
    false_positive_rate,
    positive_prediction_rate,
    roc_auc_score,
)

__all__ = [
    "GroupRates",
    "group_rates",
    "group_auc",
]


@dataclass(frozen=True)
class GroupRates:
    """Per-group confusion-derived rates.

    Attributes
    ----------
    groups:
        The distinct protected-attribute values, in sorted order.
    positive_rate:
        ``P(ŷ=1 | s)`` per group (disparate-impact view).
    fpr / fnr:
        False positive / false negative rate per group (disparate-
        mistreatment view).
    counts:
        Group sizes.
    """

    groups: tuple
    positive_rate: dict = field(repr=False)
    fpr: dict = field(repr=False)
    fnr: dict = field(repr=False)
    counts: dict = field(repr=False)

    def gap(self, measure: str) -> float:
        """Max-min spread of a measure across groups ('positive_rate', 'fpr', 'fnr')."""
        table = getattr(self, measure, None)
        if not isinstance(table, dict):
            raise ValidationError(
                f"measure must be 'positive_rate', 'fpr' or 'fnr'; got {measure!r}"
            )
        values = list(table.values())
        return float(max(values) - min(values))


def _check_triple(y_true, y_pred, s):
    y_true = check_binary_labels(y_true, name="y_true")
    y_pred = check_binary_labels(y_pred, name="y_pred")
    s = column_or_1d(s, name="s")
    check_consistent_length(y_true, y_pred, s)
    if len(np.unique(s)) < 2:
        raise ValidationError("group-fairness measures need at least two groups in s")
    return y_true, y_pred, s


def group_rates(y_true, y_pred, s) -> GroupRates:
    """Compute all per-group rates the paper's group-fairness figures show."""
    y_true, y_pred, s = _check_triple(y_true, y_pred, s)
    groups = tuple(np.unique(s).tolist())
    positive_rate, fpr, fnr, counts = {}, {}, {}, {}
    for value in groups:
        members = s == value
        positive_rate[value] = positive_prediction_rate(y_pred[members])
        fpr[value] = false_positive_rate(y_true[members], y_pred[members])
        fnr[value] = false_negative_rate(y_true[members], y_pred[members])
        counts[value] = int(members.sum())
    return GroupRates(
        groups=groups, positive_rate=positive_rate, fpr=fpr, fnr=fnr, counts=counts
    )


def group_auc(y_true, y_score, s) -> dict:
    """AUC per group plus overall, keyed by group value and ``"any"``.

    Mirrors the γ-sweep figures (4c, 7c, 10c), which plot AUC for S=0, S=1
    and S=Any. Groups with a single class present report ``nan``.
    """
    y_true = check_binary_labels(y_true, name="y_true")
    y_score = column_or_1d(y_score, name="y_score", dtype=np.float64)
    s = column_or_1d(s, name="s")
    check_consistent_length(y_true, y_score, s)
    out = {}
    for value in np.unique(s):
        members = s == value
        if len(np.unique(y_true[members])) < 2:
            out[value] = float("nan")
        else:
            out[value] = roc_auc_score(y_true[members], y_score[members])
    out["any"] = roc_auc_score(y_true, y_score)
    return out
