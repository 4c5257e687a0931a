"""Data splitting, stratified folds and parameter grids.

The building blocks of the paper's protocol (§4.1): a held-out test split,
then a 5-fold cross-validation grid search on the training portion (run by
:meth:`repro.experiments.ExperimentHarness.tune`), then a single evaluation
on the untouched test set.
"""

from __future__ import annotations

import itertools

import numpy as np

from .._validation import (
    check_consistent_length,
    check_random_state,
    column_or_1d,
)
from ..exceptions import ValidationError

__all__ = [
    "train_test_split",
    "StratifiedKFold",
    "ParameterGrid",
]


def train_test_split(*arrays, test_size: float = 0.3, stratify=None, seed=None):
    """Split arrays into random train and test subsets.

    Parameters
    ----------
    *arrays:
        One or more arrays sharing the first dimension.
    test_size:
        Fraction of samples assigned to the test set, in (0, 1).
    stratify:
        Optional label array; when given, each label keeps (approximately)
        its population share in both splits.
    seed:
        Seed or ``numpy.random.Generator`` for the shuffle.

    Returns
    -------
    list
        ``[a1_train, a1_test, a2_train, a2_test, ...]`` in argument order.
    """
    if not arrays:
        raise ValidationError("train_test_split needs at least one array")
    if not 0.0 < test_size < 1.0:
        raise ValidationError(f"test_size must be in (0, 1); got {test_size}")
    n = check_consistent_length(*arrays)
    n_test = int(round(n * test_size))
    if n_test == 0 or n_test == n:
        raise ValidationError(
            f"test_size={test_size} leaves an empty split for n={n} samples"
        )
    rng = check_random_state(seed)

    if stratify is None:
        permutation = rng.permutation(n)
        test_idx = permutation[:n_test]
        train_idx = permutation[n_test:]
    else:
        labels = column_or_1d(stratify, name="stratify")
        check_consistent_length(arrays[0], labels)
        test_parts, train_parts = [], []
        # Largest-remainder allocation keeps the test set size exact while
        # keeping every class close to its population share.
        values, counts = np.unique(labels, return_counts=True)
        quotas = counts * test_size
        base = np.floor(quotas).astype(int)
        remainder = n_test - int(base.sum())
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:remainder]] += 1
        for value, take in zip(values, base):
            members = np.flatnonzero(labels == value)
            members = rng.permutation(members)
            test_parts.append(members[:take])
            train_parts.append(members[take:])
        test_idx = rng.permutation(np.concatenate(test_parts))
        train_idx = rng.permutation(np.concatenate(train_parts))

    result = []
    for array in arrays:
        indexable = np.asarray(array)
        result.extend([indexable[train_idx], indexable[test_idx]])
    return result


class StratifiedKFold:
    """K-fold splitter that preserves per-class proportions in every fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = False, seed=None):
        if n_splits < 2:
            raise ValidationError(f"n_splits must be >= 2; got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, X, y):
        """Yield stratified ``(train_indices, test_indices)`` pairs."""
        y = column_or_1d(y, name="y")
        n = len(y)
        check_consistent_length(X, y)
        rng = check_random_state(self.seed)
        # Assign a fold id to each sample, dealing class-by-class round-robin.
        fold_of = np.empty(n, dtype=int)
        for value in np.unique(y):
            members = np.flatnonzero(y == value)
            if len(members) < self.n_splits:
                raise ValidationError(
                    f"class {value!r} has only {len(members)} members for "
                    f"{self.n_splits} folds"
                )
            if self.shuffle:
                members = rng.permutation(members)
            fold_of[members] = np.arange(len(members)) % self.n_splits
        for fold in range(self.n_splits):
            test_idx = np.flatnonzero(fold_of == fold)
            train_idx = np.flatnonzero(fold_of != fold)
            yield train_idx, test_idx


class ParameterGrid:
    """Iterate over the cartesian product of a parameter grid dictionary.

    ``ParameterGrid({"a": [1, 2], "b": [3]})`` yields ``{"a": 1, "b": 3}``
    and ``{"a": 2, "b": 3}``. A list of grids is accepted and concatenated.
    """

    def __init__(self, grid):
        if isinstance(grid, dict):
            grid = [grid]
        if not isinstance(grid, (list, tuple)) or not all(isinstance(g, dict) for g in grid):
            raise ValidationError("grid must be a dict or a list of dicts")
        for g in grid:
            for key, values in g.items():
                if not isinstance(values, (list, tuple, np.ndarray)):
                    raise ValidationError(
                        f"grid values must be sequences; {key!r} has {type(values).__name__}"
                    )
                if len(values) == 0:
                    raise ValidationError(f"grid entry {key!r} is empty")
        self.grid = [dict(g) for g in grid]

    def __iter__(self):
        for g in self.grid:
            if not g:
                yield {}
                continue
            keys = sorted(g)
            for combo in itertools.product(*(g[k] for k in keys)):
                yield dict(zip(keys, combo))

    def __len__(self) -> int:
        total = 0
        for g in self.grid:
            size = 1
            for values in g.values():
                size *= len(values)
            total += size
        return total
