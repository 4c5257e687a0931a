"""Shared input-validation helpers used across the library.

These helpers normalize user input into well-formed numpy arrays and raise
:class:`repro.exceptions.ValidationError` with actionable messages when the
input cannot be used. They are the single choke point for array hygiene so
that individual estimators stay focused on their algorithms.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.sparse as sp

from .exceptions import NotFittedError, ValidationError

__all__ = [
    "check_array",
    "check_X_y",
    "check_consistent_length",
    "check_finite",
    "check_is_fitted",
    "check_random_state",
    "check_square",
    "check_symmetric",
    "column_or_1d",
    "check_binary_labels",
]


def check_array(
    array,
    *,
    name: str = "X",
    ensure_2d: bool = True,
    allow_sparse: bool = False,
    dtype=np.float64,
    min_samples: int = 1,
):
    """Validate an array-like and return it as a numpy array (or sparse matrix).

    Parameters
    ----------
    array:
        Array-like input to validate.
    name:
        Name used in error messages.
    ensure_2d:
        Require ``array.ndim == 2``. A 1-D input is rejected (not reshaped)
        to force callers to be explicit.
    allow_sparse:
        Accept scipy sparse matrices (returned as CSR).
    dtype:
        Target dtype; ``None`` keeps the input dtype.
    min_samples:
        Minimum number of rows required.
    """
    if sp.issparse(array):
        if not allow_sparse:
            raise ValidationError(f"{name} must be dense; got a sparse matrix")
        array = array.tocsr()
        if array.shape[0] < min_samples:
            raise ValidationError(
                f"{name} needs at least {min_samples} row(s); got {array.shape[0]}"
            )
        if not np.all(np.isfinite(array.data)):
            raise ValidationError(f"{name} contains NaN or infinity")
        return array.astype(dtype) if dtype is not None else array

    try:
        out = np.asarray(array, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} could not be converted to an array: {exc}") from exc

    if ensure_2d and out.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional; got ndim={out.ndim}")
    if out.ndim == 0:
        raise ValidationError(f"{name} must be an array, got a scalar")
    if out.shape[0] < min_samples:
        raise ValidationError(
            f"{name} needs at least {min_samples} row(s); got {out.shape[0]}"
        )
    if out.dtype.kind == "f" and not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} contains NaN or infinity")
    return out


def column_or_1d(y, *, name: str = "y", dtype=None):
    """Validate that ``y`` is 1-D (or a single column) and return it flattened."""
    out = np.asarray(y) if dtype is None else np.asarray(y, dtype=dtype)
    if out.ndim == 2 and out.shape[1] == 1:
        out = out.ravel()
    if out.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional; got shape {out.shape}")
    return out


def check_consistent_length(*arrays) -> int:
    """Verify all arrays share the same first dimension; return that length."""
    lengths = [a.shape[0] if hasattr(a, "shape") else len(a) for a in arrays if a is not None]
    if not lengths:
        raise ValidationError("no arrays given to check_consistent_length")
    if len(set(lengths)) > 1:
        raise ValidationError(f"inconsistent sample counts: {lengths}")
    return lengths[0]


def check_X_y(X, y, *, allow_sparse: bool = False, min_samples: int = 1):
    """Validate a feature matrix and label vector jointly."""
    X = check_array(X, name="X", allow_sparse=allow_sparse, min_samples=min_samples)
    y = column_or_1d(y, name="y")
    check_consistent_length(X, y)
    return X, y


def check_binary_labels(y, *, name: str = "y") -> np.ndarray:
    """Validate that ``y`` holds exactly the labels {0, 1} (or a subset)."""
    y = column_or_1d(y, name=name)
    values = np.unique(y)
    if not np.isin(values, (0, 1)).all():
        raise ValidationError(
            f"{name} must be binary with labels in {{0, 1}}; got values {values}"
        )
    return y.astype(np.int64)


def check_finite(value, *, name: str, positive: bool = False) -> None:
    """A ValidationError naming ``name`` unless ``value`` is a finite number
    (and ``> 0`` when ``positive``)."""
    try:
        valid = math.isfinite(value) and (value > 0 or not positive)
    except TypeError:
        valid = False
    if not valid:
        what = "a positive finite number" if positive else "finite"
        raise ValidationError(f"{name} must be {what}; got {value!r}")


def check_is_fitted(estimator, attributes) -> None:
    """Raise :class:`NotFittedError` unless all ``attributes`` exist on the estimator."""
    if isinstance(attributes, str):
        attributes = (attributes,)
    missing = [a for a in attributes if getattr(estimator, a, None) is None]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() before using "
            f"this method (missing: {', '.join(missing)})"
        )


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    ``Generator`` (returned unchanged).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, numbers.Integral):
        return np.random.default_rng(int(seed))
    raise ValidationError(f"cannot use {seed!r} to seed a random Generator")


def check_square(W, *, name: str = "W"):
    """Validate that ``W`` is a square 2-D matrix (dense or sparse).

    Dense input is coerced to float64; sparse input keeps its dtype.
    """
    if sp.issparse(W):
        if W.shape[0] != W.shape[1]:
            raise ValidationError(f"{name} must be square; got shape {W.shape}")
        return W.tocsr()
    W = check_array(W, name=name)
    if W.shape[0] != W.shape[1]:
        raise ValidationError(f"{name} must be square; got shape {W.shape}")
    return W


def check_symmetric(W, *, name: str = "W", tol: float = 1e-10):
    """Validate that ``W`` is square and symmetric within ``tol``."""
    W = check_square(W, name=name)
    if sp.issparse(W):
        diff = abs(W - W.T)
        if diff.nnz and diff.max() > tol:
            raise ValidationError(f"{name} must be symmetric (max asymmetry {diff.max():.3g})")
        return W
    # Row blocks of about 2**18 entries: the check's temporary stays a few
    # MB instead of two n×n arrays. check_array has rejected NaN, so the
    # blocks' maxima combine exactly into the whole matrix's.
    n = W.shape[0]
    rows = max(1, 2**18 // max(n, 1))
    asym = 0.0
    for start in range(0, n, rows):
        diff = W[start:start + rows] - W[:, start:start + rows].T
        asym = max(asym, np.max(np.abs(diff, out=diff)))
    if asym > tol:
        raise ValidationError(f"{name} must be symmetric (max asymmetry {asym:.3g})")
    return W
