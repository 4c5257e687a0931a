"""Dataset container shared by all experiment workloads.

A :class:`Dataset` bundles everything the paper's protocol needs for one
workload: the numeric feature matrix (protected attribute included as a
column so baselines can mask or exclude it), binary labels, the protected
attribute, and the fairness *side information* (star ratings, decile
scores, within-group ranking scores) from which ``WF`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_binary_labels, check_consistent_length
from ..exceptions import DatasetError

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """One workload: features, labels, protected attribute, side information.

    Attributes
    ----------
    name:
        Workload identifier (``"synthetic"``, ``"crime"``, ``"compas"``).
    X:
        Feature matrix ``(n, m)`` of floats; includes the protected
        attribute column(s) so that methods choose how to treat them.
    y:
        Binary classification target in {0, 1}.
    s:
        Protected-group membership per individual (integers; 1 = protected).
    feature_names:
        Length-``m`` column names for ``X``.
    protected_columns:
        Indices of the columns of ``X`` that encode the protected attribute.
    side_information:
        Per-individual fairness side information (e.g. mean star rating or
        decile score); NaN marks individuals without elicited judgments.
        ``None`` when the workload derives scores on the fly (synthetic).
    side_information_name:
        Human-readable description of the side information.
    metadata:
        Free-form extras (generator parameters, provenance).
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    s: np.ndarray
    feature_names: tuple
    protected_columns: tuple
    side_information: np.ndarray | None = None
    side_information_name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise DatasetError(f"X must be 2-D; got shape {X.shape}")
        y = check_binary_labels(self.y, name="y")
        s = np.asarray(self.s)
        check_consistent_length(X, y, s)
        if len(self.feature_names) != X.shape[1]:
            raise DatasetError(
                f"{len(self.feature_names)} feature names for {X.shape[1]} columns"
            )
        for column in self.protected_columns:
            if not 0 <= column < X.shape[1]:
                raise DatasetError(f"protected column {column} out of range")
        if self.side_information is not None:
            side = np.asarray(self.side_information, dtype=np.float64)
            if side.shape[0] != X.shape[0]:
                raise DatasetError(
                    f"side information has {side.shape[0]} rows; X has {X.shape[0]}"
                )
            object.__setattr__(self, "side_information", side)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "protected_columns", tuple(self.protected_columns))

    @property
    def n_samples(self) -> int:
        """Number of individuals."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of feature columns (protected attribute included)."""
        return self.X.shape[1]

    def group_sizes(self) -> dict:
        """Group value → count."""
        values, counts = np.unique(self.s, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def base_rates(self) -> dict:
        """Group value → P(y = 1 | s), the paper's Table 1 statistic."""
        return {
            value: float(np.mean(self.y[self.s == value]))
            for value in np.unique(self.s)
        }

    def table1_row(self) -> dict:
        """The dataset's row of the paper's Table 1."""
        sizes = self.group_sizes()
        rates = self.base_rates()
        return {
            "dataset": self.name,
            "n": self.n_samples,
            "n_s0": sizes.get(0, 0),
            "n_s1": sizes.get(1, 0),
            "base_rate_s0": round(rates.get(0, float("nan")), 2),
            "base_rate_s1": round(rates.get(1, float("nan")), 2),
        }

    def nonprotected_view(self) -> np.ndarray:
        """Feature matrix with the protected columns removed."""
        keep = np.setdiff1d(np.arange(self.n_features), np.asarray(self.protected_columns))
        return self.X[:, keep]
