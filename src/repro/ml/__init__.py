"""In-house machine-learning substrate (scikit-learn replacement).

The execution environment provides no scikit-learn, so this subpackage
implements the estimator protocol, the logistic-regression downstream
classifier the paper uses, the evaluation metrics, standardization, and the
splitters and parameter grids of the paper's protocol (§4.1).
"""

from .base import BaseEstimator, ClassifierMixin, TransformerMixin, clone
from .linear import LogisticRegression, sigmoid
from .metrics import (
    confusion_matrix,
    false_negative_rate,
    false_positive_rate,
    positive_prediction_rate,
    roc_auc_score,
    roc_curve,
)
from .model_selection import ParameterGrid, StratifiedKFold, train_test_split
from .preprocessing import StandardScaler

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "TransformerMixin",
    "clone",
    "LogisticRegression",
    "sigmoid",
    "confusion_matrix",
    "false_negative_rate",
    "false_positive_rate",
    "positive_prediction_rate",
    "roc_auc_score",
    "roc_curve",
    "ParameterGrid",
    "StratifiedKFold",
    "train_test_split",
    "StandardScaler",
]
