"""Registry of the paper's experiments, and the record generated from it.

Each entry ties a table/figure of the paper to the driver that regenerates
it, the workload it runs on, and the paper's qualitative claims about it.
Every claim either names the tier-1 test that pins it or records how the
default-scale run deviates from it. ``repro run all --output
EXPERIMENTS.md`` renders this registry, with the measured values, into
the committed paper-vs-measured record (:func:`render_record`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .._version import __version__
from ..exceptions import ValidationError
from . import figures

__all__ = [
    "Claim",
    "PaperExperiment",
    "EXPERIMENTS",
    "get_experiment",
    "render_record",
]


@dataclass(frozen=True)
class Claim:
    """One qualitative claim of the paper about an experiment.

    Exactly one of ``test`` and ``deviation`` is set. ``test`` is the id
    of the tier-1 test that pins the claim
    (``tests/<file>.py::<Class>::<test>``); ``deviation`` says what the
    default-scale run shows instead of the claim.
    """

    text: str
    test: str | None = None
    deviation: str | None = None

    def __post_init__(self):
        if (self.test is None) == (self.deviation is None):
            raise ValidationError(
                f"claim {self.text!r} needs exactly one of test and deviation"
            )


@dataclass(frozen=True)
class PaperExperiment:
    """One reproducible paper experiment (a table or figure of §4).

    Not to be confused with the declarative
    :class:`~repro.experiments.RunSpec` scenario matrix.

    Attributes
    ----------
    experiment_id:
        Paper identifier (``table1``, ``figure2``, ...).
    title:
        What the paper shows.
    dataset:
        Workload name (``synthetic``, ``crime``, ``compas`` or ``all``).
    driver:
        Zero-argument-friendly callable ``f(*, seed, scale, ...)`` from
        :mod:`repro.experiments.figures`.
    claims:
        The paper's qualitative claims, as :class:`Claim` entries.
    """

    experiment_id: str
    title: str
    dataset: str
    driver: object
    claims: tuple


class UnknownExperimentError(ValidationError, KeyError):
    """No paper experiment has this id (a ``KeyError`` too, like a dict)."""

    __str__ = Exception.__str__


def _pinned(text: str, test: str) -> Claim:
    return Claim(text, test=f"tests/test_paper_claims.py::{test}")


EXPERIMENTS = {
    "table1": PaperExperiment(
        "table1",
        "Experimental setting and statistics of the datasets",
        "all",
        figures.table1,
        (
            _pinned("synthetic: 600 individuals, 300/300, base rates ≈ "
                    "0.51/0.48", "TestTable1::test_statistics_match_paper"),
            _pinned("crime: 1993 communities, 1423/570, base rates ≈ "
                    "0.35/0.86", "TestTable1::test_statistics_match_paper"),
            _pinned("compas: 8803 offenders, 4218/4585, base rates ≈ "
                    "0.41/0.55", "TestTable1::test_statistics_match_paper"),
        ),
    ),
    "figure1": PaperExperiment(
        "figure1",
        "Learned 2-D representations on the synthetic dataset",
        "synthetic",
        figures.figure1,
        (
            _pinned("original: groups separated (cross-group distance "
                    "ratio > 1.05)",
                    "TestFigure1Claims::test_original_groups_separated"),
            _pinned("lfr/pfr: groups mixed (ratio at least 0.2 below the "
                    "original's)",
                    "TestFigure1Claims::test_learned_representations_mix_groups"),
            _pinned("pfr only: deserving individuals of both groups aligned",
                    "TestFigure1Claims::test_pfr_aligns_deserving_individuals"),
            Claim("ifair: groups well-mixed",
                  deviation="with untuned defaults iFair keeps the "
                            "non-protected SAT shift, so its ratio stays "
                            "near the original's"),
        ),
    ),
    "figure2": PaperExperiment(
        "figure2",
        "Synthetic: utility vs. individual fairness per method",
        "synthetic",
        figures.figure2,
        (
            _pinned("PFR beats Original (by > 0.1) and LFR on "
                    "Consistency(WF)",
                    "TestFigure2Claims::test_pfr_wins_consistency_wf"),
            _pinned("PFR's AUC is on par with Original's and LFR's "
                    "(within 0.02) or better",
                    "TestFigure2Claims::test_pfr_best_auc_among_fair_methods"),
            _pinned("all methods reach high Consistency(WX) (> 0.6)",
                    "TestFigure2Claims::test_all_methods_high_consistency_wx"),
            Claim("PFR wins Consistency(WF) by a wide margin",
                  deviation="iFair scores higher than PFR on this simulator"),
            Claim("PFR achieves by far the best AUC",
                  deviation="iFair's AUC is higher than PFR's"),
        ),
    ),
    "figure3": PaperExperiment(
        "figure3",
        "Synthetic: per-group positive-prediction and error rates",
        "synthetic",
        figures.figure3,
        (
            _pinned("original: substantial positive-rate gap (> 0.2)",
                    "TestFigure3Claims::test_original_has_substantial_gaps"),
            _pinned("pfr: smaller positive-rate and FNR gaps than original",
                    "TestFigure3Claims::"
                    "test_pfr_improves_group_fairness_over_original"),
            _pinned("hardt: balanced error rates (FPR gap < 0.15, FNR gap "
                    "< 0.25)",
                    "TestFigure3Claims::test_hardt_balances_error_rates"),
            Claim("pfr: near-equal positive rates and error rates, "
                  "comparable to hardt",
                  deviation="PFR's gaps are below the original's but above "
                            "Hardt's"),
        ),
    ),
    "figure4": PaperExperiment(
        "figure4",
        "Synthetic: influence of gamma",
        "synthetic",
        figures.figure4,
        (
            _pinned("gamma ↑ ⇒ Consistency(WF) ↑ (by > 0.2)",
                    "TestFigure4Claims::test_consistency_wf_increases"),
            _pinned("gamma ↑ ⇒ Consistency(WX) ↓",
                    "TestFigure4Claims::test_consistency_wx_decreases"),
            _pinned("gamma ↑ ⇒ AUC ↑ (by > 0.05; fairness graph aligned "
                    "with ground truth)",
                    "TestFigure4Claims::test_auc_increases_with_gamma"),
        ),
    ),
    "figure5": PaperExperiment(
        "figure5",
        "Crime: utility vs. individual fairness (augmented baselines)",
        "crime",
        figures.figure5,
        (
            _pinned("PFR beats Original+ and iFair+ on Consistency(WF)",
                    "TestFigure5Claims::"
                    "test_pfr_beats_unconstrained_baselines_on_wf"),
            _pinned("PFR pays some AUC relative to Original+",
                    "TestFigure5Claims::test_pfr_pays_some_auc"),
            _pinned("every AUC is informative (> 0.55; PFR's > 0.6)",
                    "TestFigure5Claims::test_all_aucs_informative"),
            Claim("PFR wins Consistency(WF)",
                  deviation="LFR+ scores slightly higher than PFR at scale "
                            "1.0; PFR wins outright at the tier-1 scale 0.35"),
            Claim("PFR pays some Consistency(WX) relative to Original+",
                  deviation="PFR's Consistency(WX) is higher than "
                            "Original+'s"),
        ),
    ),
    "figure6": PaperExperiment(
        "figure6",
        "Crime: group fairness (incl. Hardt+)",
        "crime",
        figures.figure6,
        (
            _pinned("PFR's positive-rate gap is below Original+'s and "
                    "iFair+'s",
                    "TestFigure6Claims::test_pfr_beats_baselines_on_parity"),
            _pinned("PFR's mean FPR/FNR gap is within 0.1 of Hardt+'s and "
                    "under 0.4× the unconstrained baselines'",
                    "TestFigure6Claims::"
                    "test_pfr_error_balance_comparable_to_hardt"),
            _pinned("Original+ is heavily biased (positive-rate gap > 0.4)",
                    "TestFigure6Claims::test_original_heavily_biased"),
            Claim("PFR: near-equal positive rates across groups",
                  deviation="PFR narrows Original+'s positive-rate gap a lot "
                            "but does not close it"),
            Claim("PFR equalizes FPR as well as Hardt+",
                  deviation="PFR keeps a larger FPR gap than Hardt+ on this "
                            "extreme-base-rate workload"),
        ),
    ),
    "figure7": PaperExperiment(
        "figure7",
        "Crime: influence of gamma",
        "crime",
        figures.figure7,
        (
            _pinned("gamma ↑ ⇒ Consistency(WF) ↑",
                    "TestFigure7Claims::test_consistency_wf_increases"),
            _pinned("gamma ↑ ⇒ overall AUC ↓",
                    "TestFigure7Claims::test_overall_auc_decreases"),
            _pinned("gamma ↑ ⇒ protected-group AUC ↑",
                    "TestFigure7Claims::test_protected_auc_improves"),
            _pinned("gamma ↑ ⇒ group AUC gap narrows",
                    "TestFigure7Claims::test_protected_auc_gap_narrows"),
            Claim("gamma ↑ ⇒ Consistency(WX) ↓",
                  deviation="Consistency(WX) dips at mid gamma but ends "
                            "higher at gamma = 1 than at gamma = 0"),
        ),
    ),
    "figure8": PaperExperiment(
        "figure8",
        "COMPAS: utility vs. individual fairness (augmented baselines)",
        "compas",
        figures.figure8,
        (
            _pinned("PFR's Consistency(WF) is within 0.08 of every other "
                    "method or better (§4.3.3: 'performs similarly')",
                    "TestFigure8Claims::"
                    "test_pfr_individual_fairness_similar_or_better"),
            _pinned("PFR beats Original+ and iFair+ on Consistency(WF)",
                    "TestFigure8Claims::"
                    "test_pfr_beats_unconstrained_baselines_on_wf"),
            _pinned("PFR's AUC is within 0.05 of Original+'s or better",
                    "TestFigure8Claims::test_pfr_auc_comparable"),
        ),
    ),
    "figure9": PaperExperiment(
        "figure9",
        "COMPAS: group fairness (incl. Hardt+)",
        "compas",
        figures.figure9,
        (
            _pinned("PFR: near-equal positive rates (gap < 0.12)",
                    "TestFigure9Claims::test_pfr_near_equal_positive_rates"),
            _pinned("PFR's worst error-rate gap is within 0.05 of Hardt+'s",
                    "TestFigure9Claims::test_pfr_as_good_as_hardt"),
            _pinned("PFR's mean error-rate gap is within 0.05 of Hardt+'s",
                    "TestFigure9Claims::"
                    "test_pfr_mean_error_balance_as_good_as_hardt"),
            _pinned("PFR's positive-rate gap is below Original+'s and "
                    "iFair+'s",
                    "TestFigure9Claims::test_pfr_beats_unconstrained_baselines"),
        ),
    ),
    "figure10": PaperExperiment(
        "figure10",
        "COMPAS: influence of gamma",
        "compas",
        figures.figure10,
        (
            _pinned("gamma ↑ ⇒ Consistency(WF) ↑",
                    "TestFigure10Claims::test_consistency_wf_increases"),
            _pinned("gamma ↑ ⇒ Consistency(WX) ↓",
                    "TestFigure10Claims::test_consistency_wx_decreases"),
            _pinned("gamma ↑ ⇒ positive-rate gap shrinks",
                    "TestFigure10Claims::test_parity_improves_with_gamma"),
            _pinned("gamma ↑ ⇒ group AUC gap widens by at most 0.02",
                    "TestFigure10Claims::test_group_auc_gap_does_not_widen"),
            Claim("gamma ↑ ⇒ overall AUC ↓",
                  deviation="overall AUC is higher at gamma = 1 than at "
                            "gamma = 0"),
            Claim("gamma ↑ ⇒ protected-group AUC gap narrows",
                  deviation="the gap widens slightly, within the 0.02 the "
                            "pinned claim allows"),
        ),
    ),
}


def get_experiment(experiment_id: str) -> PaperExperiment:
    """Look up an experiment by its paper identifier."""
    if experiment_id not in EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]


def render_record(experiments, results, *, command: str) -> str:
    """The paper-vs-measured record: one Markdown section per experiment.

    ``results`` holds one :class:`~repro.experiments.FigureResult` per
    entry of ``experiments``, and ``command`` is the CLI invocation that
    produced them (it carries the scale and seed). The text holds no
    timestamp, host or git sha, so equal inputs give equal bytes.
    """
    lines = [
        "# Paper experiments: claims and measured values",
        "",
        f"Generated by `{command}` with repro {__version__}. Do not edit "
        "by hand.",
        "",
        "Each claim names the tier-1 test that pins it; the tests of the "
        "slower workloads run the same figures at reduced scale. A "
        "deviation is a claim of the paper that the default run (scale "
        "1.0, seed 0) does not reproduce.",
    ]
    for spec, result in zip(experiments, results):
        lines += ["", f"## {spec.experiment_id}: {spec.title}", "",
                  "Pinned claims:", ""]
        lines += [f"- {c.text} (`{c.test}`)" for c in spec.claims if c.test]
        deviations = [c for c in spec.claims if c.deviation]
        if deviations:
            lines += ["", "Deviations:", ""]
            lines += [f"- {c.text} — {c.deviation}" for c in deviations]
        rendered = [line.rstrip() for line in result.render().splitlines()]
        lines += ["", "```text", *rendered, "```"]
    return "\n".join(lines)
