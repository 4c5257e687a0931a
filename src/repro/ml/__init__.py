"""In-house machine-learning substrate (scikit-learn replacement).

The execution environment provides no scikit-learn, so this subpackage
implements the estimator protocol, the logistic-regression downstream
classifier the paper uses, the evaluation metrics, standardization, and the
splitters and parameter grids of the paper's protocol (§4.1).
"""

from .._lazy import lazy_exports

# Loaded on first access, so the estimators' `ml.base` comes without
# `ml.linear` and its scipy.optimize.
_EXPORTS = {
    "BaseEstimator": ".base",
    "ClassifierMixin": ".base",
    "TransformerMixin": ".base",
    "clone": ".base",
    "LogisticRegression": ".linear",
    "sigmoid": ".linear",
    "confusion_matrix": ".metrics",
    "false_negative_rate": ".metrics",
    "false_positive_rate": ".metrics",
    "positive_prediction_rate": ".metrics",
    "roc_auc_score": ".metrics",
    "roc_curve": ".metrics",
    "ParameterGrid": ".model_selection",
    "StratifiedKFold": ".model_selection",
    "train_test_split": ".model_selection",
    "StandardScaler": ".preprocessing",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
