"""Classification metrics implemented from first principles.

Provides the evaluation measures the paper relies on — AUC (utility), error
rates (disparate mistreatment), positive-prediction rates (disparate impact)
— plus the confusion matrix they are read from and the ROC curve. All
metrics operate on numpy arrays and binary {0, 1} labels.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    check_binary_labels,
    check_consistent_length,
    column_or_1d,
)
from ..exceptions import ValidationError

__all__ = [
    "confusion_matrix",
    "false_positive_rate",
    "false_negative_rate",
    "positive_prediction_rate",
    "roc_curve",
    "roc_auc_score",
]


def _check_pred_pair(y_true, y_pred):
    y_true = check_binary_labels(y_true, name="y_true")
    y_pred = check_binary_labels(y_pred, name="y_pred")
    check_consistent_length(y_true, y_pred)
    return y_true, y_pred


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    """2x2 confusion matrix ``[[TN, FP], [FN, TP]]`` (rows: true, cols: predicted)."""
    y_true, y_pred = _check_pred_pair(y_true, y_pred)
    matrix = np.zeros((2, 2), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def false_negative_rate(y_true, y_pred) -> float:
    """FN / (TP + FN); complement of the true positive rate."""
    matrix = confusion_matrix(y_true, y_pred)
    actual_positive = matrix[1, 0] + matrix[1, 1]
    if actual_positive == 0:
        return 0.0
    return float(matrix[1, 0] / actual_positive)


def false_positive_rate(y_true, y_pred) -> float:
    """FP / (FP + TN); 0.0 if the negative class is absent."""
    matrix = confusion_matrix(y_true, y_pred)
    actual_negative = matrix[0, 0] + matrix[0, 1]
    if actual_negative == 0:
        return 0.0
    return float(matrix[0, 1] / actual_negative)


def positive_prediction_rate(y_pred) -> float:
    """P(ŷ = 1): the rate of positive predictions (disparate-impact measure)."""
    y_pred = check_binary_labels(y_pred, name="y_pred")
    return float(np.mean(y_pred))


def roc_curve(y_true, y_score):
    """Receiver operating characteristic curve.

    Parameters
    ----------
    y_true:
        Binary ground-truth labels.
    y_score:
        Continuous scores; larger means "more positive".

    Returns
    -------
    fpr, tpr, thresholds:
        Arrays tracing the ROC curve from the most conservative threshold
        (predict nothing positive) to the most liberal (predict everything
        positive). Thresholds are the distinct score values in decreasing
        order, with a leading ``+inf`` sentinel for the (0, 0) point.
    """
    y_true = check_binary_labels(y_true, name="y_true")
    y_score = column_or_1d(y_score, name="y_score", dtype=np.float64)
    check_consistent_length(y_true, y_score)
    if not np.all(np.isfinite(y_score)):
        raise ValidationError("y_score contains NaN or infinity")

    n_positive = int(np.sum(y_true == 1))
    n_negative = int(np.sum(y_true == 0))
    if n_positive == 0 or n_negative == 0:
        raise ValidationError("roc_curve requires both classes present in y_true")

    order = np.argsort(-y_score, kind="stable")
    sorted_score = y_score[order]
    sorted_true = y_true[order]

    # Indices where the score changes — candidate thresholds.
    distinct = np.where(np.diff(sorted_score))[0]
    threshold_idx = np.concatenate([distinct, [len(sorted_true) - 1]])

    tps = np.cumsum(sorted_true)[threshold_idx]
    fps = (threshold_idx + 1) - tps

    tpr = np.concatenate([[0.0], tps / n_positive])
    fpr = np.concatenate([[0.0], fps / n_negative])
    thresholds = np.concatenate([[np.inf], sorted_score[threshold_idx]])
    return fpr, tpr, thresholds


def roc_auc_score(y_true, y_score) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic.

    Ties in ``y_score`` contribute half credit, matching the trapezoidal
    area under :func:`roc_curve`.
    """
    y_true = check_binary_labels(y_true, name="y_true")
    y_score = column_or_1d(y_score, name="y_score", dtype=np.float64)
    check_consistent_length(y_true, y_score)

    n_positive = int(np.sum(y_true == 1))
    n_negative = int(np.sum(y_true == 0))
    if n_positive == 0 or n_negative == 0:
        raise ValidationError("roc_auc_score requires both classes present in y_true")

    # Midranks handle ties exactly.
    order = np.argsort(y_score, kind="stable")
    ranks = np.empty(len(y_score), dtype=np.float64)
    sorted_score = y_score[order]
    i = 0
    while i < len(sorted_score):
        j = i
        while j + 1 < len(sorted_score) and sorted_score[j + 1] == sorted_score[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1

    rank_sum_positive = float(np.sum(ranks[y_true == 1]))
    u_statistic = rank_sum_positive - n_positive * (n_positive + 1) / 2.0
    return u_statistic / (n_positive * n_negative)
