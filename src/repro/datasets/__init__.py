"""Workload datasets: the synthetic admissions scenario, COMPAS, and
Crime & Communities (simulators calibrated to the paper's Table 1, plus
loaders for the real files when available).

Splits are :func:`repro.ml.train_test_split`'s, on row indices; the
experiment harness stratifies on the label. A per-row (y, s) cell code as
``stratify=`` (``2 * y + s`` for a binary group) stratifies on the joint
(y, s) instead, every cell within one row of its proportional share."""

from .base import Dataset
from .compas import COMPAS_FEATURES, load_compas, simulate_compas
from .crime import CRIME_FEATURES, load_crime, simulate_crime
from .ratings import rating_equivalence_classes, simulate_star_ratings
from .synthetic import ADMISSIONS_FEATURES, simulate_admissions, simulate_blobs

__all__ = [
    "Dataset",
    "COMPAS_FEATURES",
    "load_compas",
    "simulate_compas",
    "CRIME_FEATURES",
    "load_crime",
    "simulate_crime",
    "rating_equivalence_classes",
    "simulate_star_ratings",
    "ADMISSIONS_FEATURES",
    "simulate_admissions",
    "simulate_blobs",
]
