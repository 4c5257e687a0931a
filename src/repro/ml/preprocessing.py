"""Feature preprocessing: standardization.

The paper standardizes inputs ("Original representation is standardized to
zero mean and unit variance", Fig. 1). :class:`StandardScaler` reproduces
the scikit-learn behaviour the authors relied on.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_array, check_is_fitted
from ..exceptions import ValidationError
from .base import BaseEstimator, TransformerMixin

__all__ = ["StandardScaler"]


class StandardScaler(BaseEstimator, TransformerMixin):
    """Standardize features to zero mean and unit variance.

    Constant columns (zero variance) are centered but left unscaled, so the
    transform never divides by zero.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X, y=None):
        """Learn per-column means and standard deviations."""
        X = check_array(X, name="X")
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            scale = X.std(axis=0)
            # A numerically-constant column can report a tiny non-zero std
            # (floating-point residue of the mean); treat it as constant
            # relative to the column's magnitude instead of dividing by it.
            magnitude = np.maximum(np.abs(X).max(axis=0), 1.0)
            scale[scale <= 1e-10 * magnitude] = 1.0
            self.scale_ = scale
        else:
            self.scale_ = np.ones(X.shape[1])
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the learned centering and scaling."""
        check_is_fitted(self, ("mean_", "scale_"))
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features; scaler was fitted with {self.n_features_in_}"
            )
        return (X - self.mean_) / self.scale_

