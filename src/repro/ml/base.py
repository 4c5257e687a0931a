"""Estimator protocol for the in-house machine-learning substrate.

The execution environment has no scikit-learn, so this package provides the
minimal estimator contract the rest of the library builds on:

* ``get_params`` / ``set_params`` introspected from ``__init__`` so that
  hyper-parameter search (:mod:`repro.ml.model_selection`) works generically;
* :func:`clone` to create unfitted copies with identical hyper-parameters;
* mixins providing ``fit_transform`` and default ``score``.

The conventions mirror scikit-learn deliberately: estimators are configured
in ``__init__`` only, learned state lives in trailing-underscore attributes
set by ``fit``, and ``fit`` returns ``self``.
"""

from __future__ import annotations

import copy
import inspect

import numpy as np

from ..exceptions import NotFittedError, ValidationError

__all__ = ["BaseEstimator", "TransformerMixin", "ClassifierMixin", "clone"]


class BaseEstimator:
    """Base class providing hyper-parameter introspection.

    Subclasses must declare every hyper-parameter as an explicit keyword
    argument of ``__init__`` and store it under the same attribute name,
    without transformation. That discipline is what makes :func:`clone`
    and grid search possible.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        init = cls.__init__
        if init is object.__init__:
            return []
        signature = inspect.signature(init)
        names = []
        for name, parameter in signature.parameters.items():
            if name == "self":
                continue
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                raise ValidationError(
                    f"{cls.__name__}.__init__ may not use *args/**kwargs; "
                    "declare hyper-parameters explicitly"
                )
            names.append(name)
        return sorted(names)

    def get_params(self) -> dict:
        """Return the estimator's hyper-parameters as a name → value dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set hyper-parameters by name; unknown names raise. Returns ``self``."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValidationError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class TransformerMixin:
    """Adds ``fit_transform`` to estimators exposing ``fit`` and ``transform``."""

    @property
    def input_dim(self) -> int:
        """Number of input features the fitted transformer accepts.

        Backed by the ``n_features_in_`` attribute every transformer in this
        library records during ``fit``; raises :class:`NotFittedError` before
        ``fit``. Serving-layer schema checks (:mod:`repro.serving`) rely on
        this being available uniformly across estimator types.
        """
        value = getattr(self, "n_features_in_", None)
        if value is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; input_dim is only "
                "defined after fit()"
            )
        return int(value)

    def fit_transform(self, X, y=None, **fit_params):
        """Fit to ``X`` (optionally with labels ``y``) and return the transform of ``X``."""
        if y is None:
            return self.fit(X, **fit_params).transform(X)
        return self.fit(X, y, **fit_params).transform(X)


class ClassifierMixin:
    """Adds a default accuracy ``score`` to classifiers exposing ``predict``."""

    def score(self, X, y) -> float:
        """Mean accuracy of ``self.predict(X)`` against ``y``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))


def clone(estimator):
    """Return an unfitted copy of ``estimator`` with identical hyper-parameters.

    Hyper-parameter values are deep-copied so mutable values (lists of grid
    points, arrays) are not shared between the clone and the original.
    """
    if not isinstance(estimator, BaseEstimator):
        raise ValidationError(
            f"clone requires a BaseEstimator; got {type(estimator).__name__}"
        )
    params = {
        name: copy.deepcopy(getattr(estimator, name))
        for name in estimator._param_names()
    }
    return type(estimator)(**params)
