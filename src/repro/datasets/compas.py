"""COMPAS recidivism workload (paper §4.3).

The paper uses ProPublica's COMPAS dataset (8,803 offenders after standard
preprocessing; Table 1) with race — African-American (s=1) vs. others
(s=0) — as the protected attribute, two-year rearrest as the label, and
Northpointe's *within-group* decile scores as the side information behind
the between-group quantile fairness graph (§4.3.1).

This environment has no network access, so :func:`simulate_compas`
generates a synthetic population over the ProPublica schema, calibrated to
the paper's Table 1 statistics (group sizes 4218 / 4585, base rates 0.41 /
0.55). The generative model implements the paper's anti-subordination
premise explicitly (the same structure as its SAT-score example, §1.1):

* every offender has a **latent behaviour score** ``b`` whose distribution
  is *identical across groups* — the groups are equally deserving;
* recorded criminal history measures ``b`` through an **enforcement
  channel** that is inflated and noisier for the protected group
  (over-policing), so features are a *worse* predictor of behaviour for
  s=1;
* rearrest depends on behaviour *and* enforcement intensity, producing the
  higher observed base rate for the protected group;
* Northpointe's decile score observes ``b`` through an independent
  questionnaire channel and is normed **within group** — it carries
  information the features do not have, which is why the paper's
  fairness graph can *help* the protected group (Figure 10c).

:func:`load_compas` ingests the real ``compas-scores-two-years.csv`` with
ProPublica's standard filters whenever the file is available, producing an
identically-shaped :class:`~repro.datasets.base.Dataset` (same derived
feature schema).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .._validation import check_random_state
from ..exceptions import DatasetError
from ..graphs.quantiles import within_group_quantiles
from ..ml.linear import sigmoid
from .base import Dataset

__all__ = ["simulate_compas", "load_compas", "COMPAS_FEATURES"]

COMPAS_FEATURES = (
    "sex_male",
    "age",
    "log1p_juv_total",
    "log1p_priors",
    "charge_degree_felony",
    "log1p_length_of_stay",
    "race_african_american",
)

_TABLE1_N_S0 = 4218
_TABLE1_N_S1 = 4585
_TABLE1_BASE_RATE_S0 = 0.41
_TABLE1_BASE_RATE_S1 = 0.55


def _calibrate_intercept(risk: np.ndarray, target_rate: float) -> float:
    """Bisection for q such that mean(sigmoid(risk - q)) == target_rate."""
    low, high = -30.0, 30.0
    for _ in range(100):
        mid = 0.5 * (low + high)
        if float(np.mean(sigmoid(risk - mid))) > target_rate:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def simulate_compas(
    n_nonprotected: int = _TABLE1_N_S0,
    n_protected: int = _TABLE1_N_S1,
    *,
    seed=0,
    shuffle: bool = True,
    enforcement_bias: float = 0.9,
    coupling_loss_protected: float = 0.6,
    measurement_noise_protected: float = 0.8,
    questionnaire_noise: float = 0.8,
) -> Dataset:
    """Generate a synthetic COMPAS population calibrated to Table 1.

    Parameters
    ----------
    n_nonprotected, n_protected:
        Group sizes; the paper's values are 4218 and 4585. Smaller values
        produce statistically consistent scaled-down populations for tests.
    seed:
        Generator seed; the dataset is a pure function of it.
    shuffle:
        Interleave groups.
    enforcement_bias:
        Log-rate inflation of recorded counts (and rearrest propensity) for
        the protected group — the over-policing distortion.
    coupling_loss_protected:
        Fractional loss of behaviour-to-record coupling for the protected
        group: indiscriminate policing makes recorded history track actual
        behaviour less faithfully, so features predict s=1 outcomes worse
        (the paper's Figure 10c premise).
    measurement_noise_protected:
        Extra noise (sd) in the protected group's feature channel.
    questionnaire_noise:
        Noise (sd) of the decile score's independent view of behaviour.

    Returns
    -------
    Dataset
        Features per :data:`COMPAS_FEATURES` (``race_african_american`` is
        the protected column), label = two-year rearrest, side information =
        Northpointe-style within-group decile score in 1..10.
    """
    if min(n_nonprotected, n_protected) < 10:
        raise DatasetError("each group needs at least 10 individuals")
    rng = check_random_state(seed)

    n = n_nonprotected + n_protected
    s = np.concatenate(
        [
            np.zeros(n_nonprotected, dtype=np.int64),
            np.ones(n_protected, dtype=np.int64),
        ]
    )
    protected = s == 1

    # Latent behaviour: identical distribution in both groups (the paper's
    # equal-deservingness premise).
    behaviour = rng.normal(0.0, 1.0, size=n)

    # Demographics correlate with behaviour the same way in both groups.
    age = np.clip(
        38.0 - 6.0 * behaviour + rng.normal(0.0, 9.0, size=n), 18.0, 70.0
    )
    sex_male = (rng.random(n) < sigmoid(0.4 * behaviour + 1.2)).astype(np.float64)
    felony = (rng.random(n) < sigmoid(0.3 * behaviour + 0.4)).astype(np.float64)

    # Recorded criminal history: enforcement channel. The protected group's
    # records are inflated (higher log-rate) and noisier (weaker coupling
    # between behaviour and what is recorded). Counts are rounded
    # log-normals: count-like marginals with a smooth log-scale relation to
    # behaviour, matching the heavy-tailed but locally coherent structure
    # of real criminal histories.
    channel_noise = rng.normal(0.0, 0.4, size=n)
    channel_noise[protected] += rng.normal(
        0.0, measurement_noise_protected, size=int(protected.sum())
    )
    coupling = 1.0 - coupling_loss_protected * protected
    log_rate = 0.5 + 0.9 * coupling * behaviour + enforcement_bias * protected
    priors = np.floor(np.exp(np.clip(log_rate + channel_noise, None, 3.5)))
    juv_total = np.floor(
        np.exp(
            np.clip(
                -0.9
                + 0.6 * coupling * behaviour
                + enforcement_bias * protected
                + rng.normal(0.0, 0.5, size=n),
                None,
                2.0,
            )
        )
    )
    length_of_stay = np.clip(
        np.exp(
            1.2 + 0.5 * felony + 0.4 * coupling * behaviour
            + rng.normal(0.0, 0.9, size=n)
        ),
        0.0,
        800.0,
    )

    # Rearrest: true behaviour plus enforcement intensity (being watched
    # more makes rearrest more likely at the same behaviour). Per-group
    # intercepts calibrate the Table 1 base rates.
    rearrest_propensity = 1.4 * behaviour + 0.8 * enforcement_bias * protected
    y = np.zeros(n, dtype=np.int64)
    for value, rate in ((0, _TABLE1_BASE_RATE_S0), (1, _TABLE1_BASE_RATE_S1)):
        members = s == value
        intercept = _calibrate_intercept(rearrest_propensity[members], rate)
        y[members] = (
            rng.random(int(members.sum()))
            < sigmoid(rearrest_propensity[members] - intercept)
        ).astype(np.int64)

    # Northpointe's questionnaire sees behaviour through its own channel,
    # then norms the score within each group (deciles 1..10).
    questionnaire = behaviour + rng.normal(0.0, questionnaire_noise, size=n)
    deciles = within_group_quantiles(questionnaire, s, n_quantiles=10) + 1

    X = np.column_stack(
        [
            sex_male,
            age,
            np.log1p(juv_total),
            np.log1p(priors),
            felony,
            np.log1p(length_of_stay),
            s.astype(np.float64),
        ]
    )

    if shuffle:
        order = rng.permutation(n)
        X, y, s, deciles = X[order], y[order], s[order], deciles[order]

    return Dataset(
        name="compas",
        X=X,
        y=y,
        s=s,
        feature_names=COMPAS_FEATURES,
        protected_columns=(6,),
        side_information=deciles.astype(np.float64),
        side_information_name="Northpointe-style within-group decile score (1-10)",
        metadata={
            "seed": seed,
            "generator": "simulate_compas",
            "substitution": (
                "synthetic population over the ProPublica schema calibrated "
                "to Table 1; see the simulate_compas docstring"
            ),
        },
    )


# --- loader for the real ProPublica file --------------------------------

_REQUIRED_COLUMNS = (
    "sex",
    "age",
    "race",
    "juv_fel_count",
    "juv_misd_count",
    "juv_other_count",
    "priors_count",
    "c_charge_degree",
    "days_b_screening_arrest",
    "is_recid",
    "decile_score",
    "two_year_recid",
)


def load_compas(path) -> Dataset:
    """Load ProPublica's ``compas-scores-two-years.csv`` with standard filters.

    Filters (as in ProPublica's analysis and the paper's preprocessing):
    screening within ±30 days of arrest, ``is_recid != -1``, and ordinary
    traffic offenses (``c_charge_degree == 'O'``) removed. The derived
    feature schema matches :func:`simulate_compas` (juvenile counts
    aggregated, counts log-transformed).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"COMPAS file not found: {path}")

    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DatasetError(f"{path} has no header row")
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DatasetError(f"{path} is missing columns: {missing}")
        rows = list(reader)
    if not rows:
        raise DatasetError(f"{path} contains no data rows")

    records = []
    for row in rows:
        try:
            days = float(row["days_b_screening_arrest"])
        except (TypeError, ValueError):
            continue
        if not -30.0 <= days <= 30.0:
            continue
        if row["is_recid"] == "-1":
            continue
        if row["c_charge_degree"] == "O":
            continue
        try:
            juv_total = (
                float(row["juv_fel_count"])
                + float(row["juv_misd_count"])
                + float(row["juv_other_count"])
            )
            records.append(
                (
                    1.0 if row["sex"] == "Male" else 0.0,
                    float(row["age"]),
                    np.log1p(juv_total),
                    np.log1p(float(row["priors_count"])),
                    1.0 if row["c_charge_degree"] == "F" else 0.0,
                    np.log1p(_length_of_stay_days(row)),
                    1.0 if row["race"] == "African-American" else 0.0,
                    int(row["two_year_recid"]),
                    float(row["decile_score"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"malformed row in {path}: {exc}") from exc

    if len(records) < 10:
        raise DatasetError(f"{path}: too few rows survive the filters ({len(records)})")

    data = np.asarray(records, dtype=np.float64)
    X = data[:, :7]
    y = data[:, 7].astype(np.int64)
    s = X[:, 6].astype(np.int64)
    deciles = data[:, 8]
    return Dataset(
        name="compas",
        X=X,
        y=y,
        s=s,
        feature_names=COMPAS_FEATURES,
        protected_columns=(6,),
        side_information=deciles,
        side_information_name="Northpointe COMPAS decile score (1-10)",
        metadata={"source": str(path), "generator": "load_compas"},
    )


def _length_of_stay_days(row) -> float:
    """Days between ``c_jail_in`` and ``c_jail_out``; 0 when unavailable."""
    from datetime import datetime

    jail_in = row.get("c_jail_in", "") or ""
    jail_out = row.get("c_jail_out", "") or ""
    if not jail_in.strip() or not jail_out.strip():
        return 0.0
    try:
        start = datetime.fromisoformat(jail_in.strip())
        end = datetime.fromisoformat(jail_out.strip())
    except ValueError:
        return 0.0
    return max((end - start).total_seconds() / 86400.0, 0.0)
