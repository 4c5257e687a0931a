"""Linear models: the downstream predictors used throughout the paper.

The paper trains an "out-of-the-box logistic regression classifier" on every
learned representation (§4.1). This module supplies that classifier —
L2-regularized logistic regression fitted with L-BFGS and an analytic
gradient.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from .._validation import check_array, check_is_fitted, check_X_y
from ..exceptions import ConvergenceError, ValidationError
from .base import BaseEstimator, ClassifierMixin

__all__ = ["LogisticRegression", "sigmoid"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function ``1 / (1 + exp(-z))``."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(sigmoid(z))``."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = -np.log1p(np.exp(-z[positive]))
    out[~positive] = z[~positive] - np.log1p(np.exp(z[~positive]))
    return out


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary L2-regularized logistic regression.

    Minimizes ``sum_i log(1 + exp(-t_i (w·x_i + b))) + (1 / (2C)) ||w||²``
    with ``t_i ∈ {-1, +1}``; the intercept is never penalized. Optimization
    uses ``scipy.optimize.minimize(method="L-BFGS-B")`` with the analytic
    gradient, mirroring scikit-learn's ``solver="lbfgs"``.

    Parameters
    ----------
    C:
        Inverse regularization strength (larger = weaker regularization).
    fit_intercept:
        Learn an unpenalized bias term.
    max_iter:
        L-BFGS iteration budget.
    tol:
        Gradient-norm convergence tolerance passed to L-BFGS.
    class_weight:
        ``None`` (uniform) or ``"balanced"`` (weights inversely proportional
        to class frequencies, as in scikit-learn).

    Attributes
    ----------
    coef_ : ndarray of shape (n_features,)
        Learned weights.
    intercept_ : float
        Learned bias (0.0 when ``fit_intercept=False``).
    n_iter_ : int
        Iterations actually used by the optimizer.
    """

    def __init__(
        self,
        C: float = 1.0,
        fit_intercept: bool = True,
        max_iter: int = 500,
        tol: float = 1e-6,
        class_weight=None,
    ):
        self.C = C
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.class_weight = class_weight

    def _sample_weights(self, y: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.ones_like(y, dtype=np.float64)
        if self.class_weight == "balanced":
            n = len(y)
            counts = np.bincount(y.astype(np.int64), minlength=2)
            weights = np.zeros(2, dtype=np.float64)
            present = counts > 0
            weights[present] = n / (2.0 * counts[present])
            return weights[y.astype(np.int64)]
        raise ValidationError(
            f"class_weight must be None or 'balanced'; got {self.class_weight!r}"
        )

    def fit(self, X, y):
        """Fit the model on features ``X`` and binary labels ``y`` in {0, 1}."""
        X, y = check_X_y(X, y, min_samples=2)
        classes = np.unique(y)
        if len(classes) == 1:
            # Degenerate but legal in CV folds: predict the constant class.
            self.classes_ = np.array([0, 1])
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = 20.0 if classes[0] == 1 else -20.0
            self.n_iter_ = 0
            return self
        if not np.isin(classes, (0, 1)).all():
            raise ValidationError(f"y must be binary in {{0, 1}}; got classes {classes}")
        if self.C <= 0:
            raise ValidationError(f"C must be positive; got {self.C}")

        targets = np.where(y == 1, 1.0, -1.0)
        weights = self._sample_weights(y)
        n_features = X.shape[1]
        alpha = 1.0 / (2.0 * self.C)

        def objective(params):
            w = params[:n_features]
            b = params[n_features] if self.fit_intercept else 0.0
            margins = targets * (X @ w + b)
            loss = -np.sum(weights * _log_sigmoid(margins)) + alpha * (w @ w)
            # d/dm of -log(sigmoid(m)) = -sigmoid(-m)
            coeff = -weights * targets * sigmoid(-margins)
            grad_w = X.T @ coeff + 2.0 * alpha * w
            if self.fit_intercept:
                grad = np.concatenate([grad_w, [np.sum(coeff)]])
            else:
                grad = grad_w
            return loss, grad

        n_params = n_features + (1 if self.fit_intercept else 0)
        result = scipy.optimize.minimize(
            objective,
            np.zeros(n_params),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        if not result.success and "ABNORMAL" in str(result.message).upper():
            raise ConvergenceError(f"L-BFGS failed: {result.message}")

        self.classes_ = np.array([0, 1])
        self.coef_ = result.x[:n_features]
        self.intercept_ = float(result.x[n_features]) if self.fit_intercept else 0.0
        self.n_iter_ = int(result.nit)
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed distance to the decision boundary, ``w·x + b``."""
        check_is_fitted(self, "coef_")
        X = check_array(X, name="X")
        if X.shape[1] != self.coef_.shape[0]:
            raise ValidationError(
                f"X has {X.shape[1]} features; model was fitted with {self.coef_.shape[0]}"
            )
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability matrix of shape ``(n, 2)``: columns P(y=0), P(y=1)."""
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        """Hard labels at the 0.5 probability threshold."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)
