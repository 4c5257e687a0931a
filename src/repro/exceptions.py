"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of numpy, etc.) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NotFittedError",
    "ValidationError",
    "ModelNotFoundError",
    "ConvergenceError",
    "DatasetError",
    "GraphConstructionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class NotFittedError(ReproError):
    """An estimator method requiring a fitted model was called before ``fit``."""


class ValidationError(ReproError, ValueError):
    """An input array or argument failed validation.

    Inherits from :class:`ValueError` so generic callers that guard with
    ``except ValueError`` keep working.
    """


class ModelNotFoundError(ValidationError):
    """A model registry has no such model, version or promoted version.

    A :class:`ValidationError` subclass, so callers that treat every bad
    spec alike keep working; the HTTP front end maps it to 404.
    """


class ConvergenceError(ReproError):
    """An iterative optimization failed to converge within its budget."""


class DatasetError(ReproError):
    """A dataset could not be loaded, generated, or is internally inconsistent."""


class GraphConstructionError(ReproError):
    """A similarity or fairness graph could not be constructed from the inputs."""
