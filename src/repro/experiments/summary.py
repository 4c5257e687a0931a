"""One-shot workload reports: everything the paper says about a dataset.

:func:`workload_report` runs the full §4 protocol on one workload —
dataset statistics, fairness-graph diagnostics, every method's utility /
individual-fairness / group-fairness numbers, and PFR's γ trade-off
frontier — and renders it as a single text report. Exposed on the CLI as
``python -m repro report <dataset>``.
"""

from __future__ import annotations

from ..exceptions import ValidationError
from ..graphs import graph_summary
from .figures import (
    _DATASET_GAMMA,
    REAL_METHODS,
    SYNTHETIC_METHODS,
    workload_harness,
)
from .pareto import tradeoff_frontier
from .report import render_table

__all__ = ["workload_report"]

_METHODS = {
    "synthetic": SYNTHETIC_METHODS + ("hardt",),
    "crime": REAL_METHODS + ("hardt+",),
    "compas": REAL_METHODS + ("hardt+",),
}

def workload_report(
    dataset_name: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    gammas=(0.0, 0.25, 0.5, 0.75, 1.0),
    store=None,
) -> str:
    """Full §4-style report for one workload, rendered as text.

    ``store`` routes every method comparison and γ-frontier cell through
    the content-addressed run ledger (:mod:`repro.store`), so the report's
    tables are rebuilt from ledger queries — regenerating a report over a
    populated ledger decodes instead of refitting.
    """
    if dataset_name not in _METHODS:
        raise ValidationError(
            f"unknown dataset {dataset_name!r}; use synthetic, crime or compas"
        )
    harness = workload_harness(dataset_name, seed=seed, scale=scale, store=store)
    harness.prepare()
    data = harness.dataset

    sections = []

    # --- dataset statistics (Table 1 row) -------------------------------
    row = data.table1_row()
    sections.append(
        "== dataset ==\n"
        + render_table(
            ["|X|", "|X_s=0|", "|X_s=1|", "base rate s=0", "base rate s=1"],
            [[row["n"], row["n_s0"], row["n_s1"],
              row["base_rate_s0"], row["base_rate_s1"]]],
            float_format="{:.2f}",
        )
    )

    # --- fairness-graph diagnostics --------------------------------------
    stats = graph_summary(harness.W_fair_full, groups=data.s)
    sections.append(
        "== fairness graph ==\n"
        + render_table(
            ["edges", "density", "components", "isolated",
             "mean degree", "cross-group"],
            [[stats["n_edges"], stats["density"], stats["n_components"],
              stats["n_isolated"], stats["mean_degree"],
              stats["cross_group_fraction"]]],
            float_format="{:.4f}",
        )
    )

    # --- method comparison -------------------------------------------------
    results = harness.run_methods(
        _METHODS[dataset_name], gamma=_DATASET_GAMMA[dataset_name]
    )
    rows = [
        [
            method,
            r.auc,
            r.consistency_wf,
            r.consistency_wx,
            r.rates.gap("positive_rate"),
            r.rates.gap("fpr"),
            r.rates.gap("fnr"),
        ]
        for method, r in results.items()
    ]
    sections.append(
        "== methods ==\n"
        + render_table(
            ["method", "AUC", "Cons(WF)", "Cons(WX)", "parity", "FPR gap",
             "FNR gap"],
            rows,
        )
    )

    # --- PFR trade-off frontier ------------------------------------------
    frontier = tradeoff_frontier(
        harness, "pfr", grid={"gamma": list(gammas)}
    )["frontier"]
    frontier_rows = [
        [params["gamma"], r.auc, r.consistency_wf]
        for params, r in frontier
    ]
    sections.append(
        "== PFR Pareto frontier (AUC vs Consistency(WF)) ==\n"
        + render_table(["gamma", "AUC", "Consistency(WF)"], frontier_rows)
    )

    header = f"### workload report: {dataset_name} (scale={scale}, seed={seed}) ###"
    return header + "\n\n" + "\n\n".join(sections)
