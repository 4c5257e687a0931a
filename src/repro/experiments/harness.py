"""Experiment harness implementing the paper's protocol (§4.1).

For every workload the harness:

1. splits the data into train and test (stratified on the label),
2. standardizes features on the training statistics,
3. builds the fairness graph ``WF`` from the workload's side information —
   quantile graph for synthetic/COMPAS, equivalence-class graph for Crime,
4. learns each representation on the *training* rows only,
5. trains an out-of-the-box logistic regression on the representation,
6. evaluates on the untouched test set: AUC, Consistency(``WX``),
   Consistency(``WF``), and per-group positive/error rates.

The paper tunes hyper-parameters with 5-fold grid search on the training
set; :meth:`ExperimentHarness.tune` exposes that machinery, while the
figure drivers use the paper's reported operating points by default to
keep regeneration fast and deterministic.

:meth:`ExperimentHarness.run_method`, :meth:`~ExperimentHarness.run_methods`
and :meth:`~ExperimentHarness.gamma_sweep` compile onto the one
experiment-cell executor in :mod:`repro.experiments.spec` (compile →
skip → dispatch → put → read back), the same path :func:`run_spec` and
the ``repeat_*`` functions take, and so do :meth:`~ExperimentHarness.tune`,
whose grid points are ``tuned_point`` cells scored over CV folds, and
:meth:`~ExperimentHarness.export_model`, whose fit is a ``model`` cell. That
executor is the only reader and writer of these result kinds in the ledger,
and every fit (a cell's, a tune fold's, an export's) goes through
:meth:`~ExperimentHarness._fit_base_estimator`.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..baselines import (
    EqualizedOddsPostProcessor,
    IFair,
    LFR,
    MaskedRepresentation,
    SideInformationAugmenter,
)
from ..core import PFR, KernelPFR, SpectralFitPlan, plan_for_estimator
from ..core.plan import RETIRED_PARAMS, retired_param_message
from ..datasets.base import Dataset
from ..exceptions import ValidationError
from ..graphs import knn_graph
from ..metrics import group_auc, group_rates, restrict_graph
from ..metrics.group import GroupRates
from ..metrics.individual import _consistency_edges, _consistency_from_edges
from ..ml import (
    LogisticRegression,
    StandardScaler,
    roc_auc_score,
    train_test_split,
)
from ..ml.model_selection import ParameterGrid, StratifiedKFold

__all__ = [
    "MethodResult",
    "ExperimentHarness",
    "cell_task",
    "within_group_ranking_scores",
]


def cell_task(
    harness_fingerprint: dict, method: str, gamma, C, method_params: dict
) -> dict:
    """Canonical run-ledger task descriptor of one ``run_method`` cell.

    The single definition of a cell's identity: the cell executor builds
    it once per cell, skips the cell when its digest is on disk, and
    otherwise puts the computed result under it.
    """
    return {
        "kind": "method_result",
        "harness": harness_fingerprint,
        "method": str(method),
        "gamma": float(gamma),
        "C": float(C),
        "params": method_params,
    }


#: Each base method's estimator and the constructor arguments
#: _fit_base_estimator passes it itself (hardt's post-processor sits on
#: original's predictor). A cell's method params may set any other
#: argument of that estimator, plus the classifier's C.
_METHOD_ESTIMATORS = {
    "original": (MaskedRepresentation, {"protected_columns"}),
    "ifair": (IFair, {"protected_columns"}),
    "lfr": (LFR, set()),
    "pfr": (PFR, {"n_components", "gamma", "n_neighbors", "exclude_columns"}),
    "kpfr": (KernelPFR, {"n_components", "gamma", "exclude_columns"}),
    "hardt": (EqualizedOddsPostProcessor, {"seed"}),
}

#: Base method names a cell may run, each with an optional "+" suffix (the
#: side-information augmentation).
_BASE_METHODS = tuple(_METHOD_ESTIMATORS)

#: Base methods whose result γ does not shape: _fit_base_estimator hands
#: γ only to pfr and kpfr, and Hardt's post-processor never reads it.
_GAMMA_FREE_METHODS = ("original", "ifair", "lfr", "hardt")

#: The methods tune() scores. Its folds never apply the "+" augmentation,
#: so a "+" method is rejected instead of being scored as its base method.
_TUNE_METHODS = ("original", "pfr", "ifair", "lfr")

#: tune()'s fold scores: (validation labels, classifier, standardized
#: validation representation) -> score.
_SCORERS = {
    "roc_auc": lambda y, clf, Z: roc_auc_score(y, clf.predict_proba(Z)[:, 1]),
    "accuracy": lambda y, clf, Z: float(np.mean(clf.predict(Z) == y)),
}


def _check_method_params(
    method: str, params: dict, *, field: str = "method_params",
    cell: bool = True,
) -> None:
    """Reject an unknown method, params that are not a mapping, or a
    ``field`` key the method's estimator does not take.

    The one method-param check, run where cells compile, on every
    override and on every export. A cell (``cell=True``) may name a "+"
    method and set the classifier's ``C``; overrides and exports go to the
    base estimator's constructor alone. Every other key must be an
    argument of the method's estimator that
    :meth:`ExperimentHarness._fit_base_estimator` does not pass itself.
    """
    base = method.removesuffix("+") if cell else method
    if base not in _METHOD_ESTIMATORS:
        raise ValidationError(
            f"{field} names unknown method {method!r}; use one of "
            f"{'/'.join(_BASE_METHODS)}"
            + (" with an optional '+'" if cell else "")
        )
    if not isinstance(params, Mapping):
        raise ValidationError(
            f"{field}[{method!r}] must be a mapping of parameter names to "
            f"values; got {params!r}"
        )
    estimator, fixed = _METHOD_ESTIMATORS[base]
    allowed = (set(estimator._param_names()) - fixed) | ({"C"} if cell else set())
    unknown = sorted(set(params) - allowed)
    retired = [key for key in unknown if key in RETIRED_PARAMS]
    if retired:
        raise ValidationError(
            f"{field}[{method!r}]: {retired_param_message(retired[0])}"
        )
    if unknown:
        raise ValidationError(
            f"{field}[{method!r}] sets unknown keys {unknown}; "
            f"{method} takes {sorted(allowed)}"
        )


def _classify(Z_fit, y_fit, Z_eval, C):
    """The downstream classifier fitted on ``Z_fit``, and ``Z_eval``
    standardized to match. Representations come out on arbitrary scales
    (PFR's embedding columns are unit-norm, i.e. tiny per-sample);
    standardizing on the fit rows makes the classifier's regularization and
    0.5 threshold behave the same for every method."""
    scaler = StandardScaler().fit(Z_fit)
    classifier = LogisticRegression(C=C).fit(scaler.transform(Z_fit), y_fit)
    return classifier, scaler.transform(Z_eval)


class _TrainRows(NamedTuple):
    """The rows a representation is fitted on: the training split, or the
    fit part of one of tune()'s CV folds. ``key`` prefixes the fit plan's
    cache key: ``()`` for the split, ``("fold", row bytes)`` for a fold."""

    key: tuple
    X: np.ndarray
    y: np.ndarray
    s: np.ndarray
    W_fair: object


def within_group_ranking_scores(X, y, s, *, C: float = 1.0) -> np.ndarray:
    """Within-group ranking via per-group logistic regression (§4.2.1).

    The paper simulates human within-group rankings by fitting "a standard
    logistic regression model" and ranking each group by its predicted
    probability. Fitting one model *per group* keeps the ranking a purely
    within-group judgment, immune to between-group score shifts.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    s = np.asarray(s)
    scores = np.empty(len(y), dtype=np.float64)
    for value in np.unique(s):
        members = np.flatnonzero(s == value)
        model = LogisticRegression(C=C).fit(X[members], y[members])
        scores[members] = model.predict_proba(X[members])[:, 1]
    return scores


@dataclass
class MethodResult:
    """Test-set evaluation of one method on one workload.

    Attributes mirror the quantities the paper plots: utility (AUC),
    individual fairness (consistency against ``WX`` and ``WF``), and group
    fairness (per-group positive-prediction and error rates, per-group AUC).
    """

    method: str
    dataset: str
    auc: float
    consistency_wx: float
    consistency_wf: float
    rates: GroupRates
    auc_by_group: dict
    extras: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Flat dict for tables/benchmarks."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "auc": round(self.auc, 4),
            "consistency_wx": round(self.consistency_wx, 4),
            "consistency_wf": round(self.consistency_wf, 4),
            "parity_gap": round(self.rates.gap("positive_rate"), 4),
            "fpr_gap": round(self.rates.gap("fpr"), 4),
            "fnr_gap": round(self.rates.gap("fnr"), 4),
        }


class ExperimentHarness:
    """Runs the paper's evaluation protocol on one workload.

    Parameters
    ----------
    dataset:
        A :class:`repro.datasets.Dataset` (synthetic, compas, or crime).
    test_size:
        Held-out fraction (stratified on the label).
    seed:
        Split / method seed; the whole run is a function of it.
    n_quantiles:
        Quantile count for the between-group quantile graph.
    rating_resolution:
        Star-class width for the Crime equivalence-class graph.
    n_neighbors:
        ``p`` of the k-NN data graph ``WX``.
    n_components:
        Latent dimensionality for the representation learners; ``None``
        uses ``max(2, m // 3)`` where ``m`` counts non-protected features.
    landmarks:
        When set, PFR-family methods fit with the landmark-Nyström
        extension on this many landmarks
        (:class:`repro.core.LandmarkPlan`) instead of the exact all-n
        eigenproblem — the switch that lets γ-sweeps run on 100k+-row
        workloads. ``None`` (default) keeps the paper's exact solve.
    landmark_strategy:
        Landmark selection strategy (``"uniform"``, ``"kmeans++"``,
        ``"farthest"``); the harness ``seed`` seeds the selection.
    method_overrides:
        Optional per-method hyper-parameter overrides, e.g.
        ``{"lfr": {"a_z": 1.0}}`` — the stand-in for the per-dataset grid
        search the paper runs (``tune()`` reproduces the search itself).
        A key the method's estimator does not take, or one the harness
        sets itself, raises a ValidationError here.
    store:
        A run-ledger directory or :class:`~repro.store.RunLedger`. When
        set, the cells of :meth:`run_method`, :meth:`run_methods` and
        :meth:`gamma_sweep` go through the content-addressed ledger in the
        cell executor (a cell whose task digest is on disk is decoded
        instead of recomputed, so interrupted sweeps resume and extended
        grids pay only their new cells), and :meth:`tune` reads and writes
        its grid points there. Results are bitwise identical with or
        without a store, serial or parallel. ``None`` (default) keeps
        everything in memory.

    Notes
    -----
    A harness is one dataset × seed slice, and it computes the slice's
    γ-independent work once, however many γ cells it runs:

    - one fit plan per structural configuration (graphs, Laplacians,
      projected objective matrices), so each γ pays only the mix and the
      eigensolve; plans over the same training matrix share one graph and
      Laplacian stage, so ``pfr`` and ``kpfr`` build ``WX`` once;
    - per ``kpfr`` plan, the Gram rows ``K(X_train, X_fit)`` and
      ``K(X_test, X_fit)``, so each γ's transform is one product with its
      dual coefficients — ``n_train·n_fit + n_test·n_fit`` float64 values
      (22 MB for Crime at full scale, 1,395 training rows);
    - one evaluation per γ-free method (``original``, ``ifair``, ``lfr``,
      ``hardt`` and their ``+`` variants) and (``C``, parameters): every γ
      cell gets a copy, and with a ``store`` still its own ledger entry;
    - the ``+`` augmentation of the inputs;
    - the edges of the test-set graphs ``WX`` and ``WF`` that every cell
      scores consistency against. Assigning another graph to
      ``W_x_test`` or ``W_fair_test`` after :meth:`prepare` rebuilds them
      and re-evaluates the γ-free methods against it.

    These caches live as long as the harness and are dropped when it is
    pickled (see :meth:`__getstate__`).
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        test_size: float = 0.3,
        seed: int = 0,
        n_quantiles: int = 10,
        rating_resolution: float = 1.0,
        n_neighbors: int = 10,
        n_components: int | None = None,
        landmarks: int | None = None,
        landmark_strategy: str = "kmeans++",
        method_overrides: dict | None = None,
        store=None,
    ):
        self.dataset = dataset
        self.test_size = test_size
        self.seed = seed
        self.n_quantiles = n_quantiles
        self.rating_resolution = rating_resolution
        self.n_neighbors = n_neighbors
        self.n_components = n_components
        self.landmarks = landmarks
        self.landmark_strategy = landmark_strategy
        self.method_overrides = method_overrides or {}
        if not isinstance(self.method_overrides, Mapping):
            raise ValidationError(
                "method_overrides must be a mapping of method names to "
                f"parameter mappings; got {method_overrides!r}"
            )
        for method, params in self.method_overrides.items():
            _check_method_params(method, params, field="method_overrides", cell=False)
        self.store = store
        self._prepared = False
        # The slice's γ-independent work, each piece computed once: fit
        # plans (Spectral- or LandmarkPlan) per structural configuration,
        # so only the γ-mix + eigensolve re-run per point; each kpfr plan's
        # Gram rows under (*plan key, "gram"); the "+"-augmented inputs
        # under ("augmented",); each γ-free method's result under
        # ("result", method, C, params); while tune() runs, its CV folds
        # under ("fold", n_splits) and their plans under ("fold", rows, ...).
        # The test graphs' scoring edges sit beside them, with the graphs
        # they were prepared from.
        self._plan_cache: dict = {}
        self._scoring_cache: tuple | None = None

    def __getstate__(self):
        """Pickle without the staged-fit plan caches.

        The caches are pure derived state (rebuildable from the training
        matrix + structural hyper-parameters) and can hold n×n kernel
        matrices and Gram rows, so shipping them to worker processes would
        dominate the fan-out cost. Each worker rebuilds its plans lazily —
        once per (fold, structural-params) key — and then reuses them for
        every task it handles, preserving the sweep amortization per
        process.
        """
        state = self.__dict__.copy()
        state["_plan_cache"] = {}
        state["_scoring_cache"] = None
        return state

    # -- run-ledger plumbing (repro.store) ---------------------------------

    def _ledger(self):
        """The :class:`~repro.store.RunLedger` behind ``store`` (or None)."""
        from ..store import coerce_ledger

        return coerce_ledger(self.store)

    def task_fingerprint(self) -> dict:
        """Canonical descriptor of everything a cell result depends on.

        Covers the dataset *content* (array hashes, not generator
        arguments) and every harness knob that shapes a result. Two
        harnesses with equal fingerprints produce bitwise-identical cells,
        which is what lets the ledger treat the digest as the cache key.
        """
        from ..store import dataset_fingerprint

        return {
            "dataset": dataset_fingerprint(self.dataset),
            "test_size": float(self.test_size),
            "seed": int(self.seed),
            "n_quantiles": int(self.n_quantiles),
            "rating_resolution": float(self.rating_resolution),
            "n_neighbors": int(self.n_neighbors),
            "n_components": self.n_components,
            "landmarks": self.landmarks,
            "landmark_strategy": str(self.landmark_strategy),
            "method_overrides": self.method_overrides,
        }

    # -- data preparation --------------------------------------------------

    def prepare(self) -> "ExperimentHarness":
        """Split, scale, and build every graph the protocol needs."""
        if self._prepared:
            return self
        data = self.dataset
        indices = np.arange(data.n_samples)
        train_idx, test_idx = train_test_split(
            indices, test_size=self.test_size, stratify=data.y, seed=self.seed
        )
        self.train_idx, self.test_idx = train_idx, test_idx

        self.scaler = StandardScaler().fit(data.X[train_idx])
        self.X_train = self.scaler.transform(data.X[train_idx])
        self.X_test = self.scaler.transform(data.X[test_idx])
        self.y_train, self.y_test = data.y[train_idx], data.y[test_idx]
        self.s_train, self.s_test = data.s[train_idx], data.s[test_idx]
        self.protected = list(data.protected_columns)

        self.side_values = self._side_information_scores()
        self.W_fair_full = self._build_fairness_graph()
        self.W_fair_train = restrict_graph(self.W_fair_full, train_idx)
        self.W_fair_test = restrict_graph(self.W_fair_full, test_idx)

        nonprotected = np.setdiff1d(
            np.arange(data.n_features), np.asarray(self.protected)
        )
        self.W_x_test = knn_graph(
            self.X_test[:, nonprotected],
            n_neighbors=min(self.n_neighbors, len(test_idx) - 1),
        )

        m_effective = len(nonprotected)
        if self.n_components is None:
            # Meaningful compression is required for the fairness graph to
            # shape the representation; a third of the feature count (at
            # least 2) matches the regime the paper's grid search lands in.
            self.n_components_ = max(2, m_effective // 3)
        else:
            self.n_components_ = self.n_components
        self._prepared = True
        return self

    def _side_information_scores(self) -> np.ndarray:
        """Per-individual side information (the input behind ``WF``)."""
        from .builders import fairness_side_scores

        return fairness_side_scores(self.dataset, train_indices=self.train_idx)

    def _build_fairness_graph(self):
        """Workload-appropriate ``WF`` over the full population (§4.3.1)."""
        from .builders import build_fairness_graph

        return build_fairness_graph(
            self.dataset,
            n_quantiles=self.n_quantiles,
            rating_resolution=self.rating_resolution,
            scores=self.side_values,
        )

    # -- representations ---------------------------------------------------

    def _augmented(self, X_train, X_test):
        """Apply the "+" augmentation: side values at train, means at test."""
        side_train = self.side_values[self.train_idx]
        augmenter = SideInformationAugmenter(side_information=side_train)
        return (
            augmenter.fit_transform(X_train),
            augmenter.transform(X_test),
        )

    def _augmented_inputs(self):
        """The "+"-augmented ``X_train`` and ``X_test``, built once.

        A kpfr+ plan keeps the training matrix it was built from as the
        model's ``X_fit_``, and ``K(X_fit_, X_fit_)`` differs in the last
        bits from ``K(equal copy, X_fit_)``: every cell must pass that very
        matrix, or a cell's bits would depend on the cells run before it.
        """
        key = ("augmented",)
        if key not in self._plan_cache:
            self._plan_cache[key] = self._augmented(self.X_train, self.X_test)
        return self._plan_cache[key]

    def _representation(self, method: str, *, gamma: float, method_params: dict):
        """Train-representation + test-representation for a method name."""
        augment = method.endswith("+")
        base = method.rstrip("+")
        X_train, X_test = self.X_train, self.X_test
        if augment and base != "original":
            # original+ augments its masked output instead (below).
            X_train, X_test = self._augmented_inputs()
        model = self._fit_base_estimator(
            base, self._split_rows(X_train), gamma=gamma, augment=augment,
            method_params=method_params,
        )
        if base == "original" and augment:
            return self._augmented(model.transform(X_train),
                                   model.transform(X_test))
        if base != "kpfr":
            return model.transform(X_train), model.transform(X_test)
        # transform is K(rows, X_fit_) @ alphas_, and only alphas_ depends
        # on γ: each plan's kernel rows are computed once per harness.
        key = (*self._plan_key(model, base, augment, method_params), "gram")
        if key not in self._plan_cache:
            self._plan_cache[key] = (
                model._kernel_rows(X_train), model._kernel_rows(X_test),
            )
        K_train, K_test = self._plan_cache[key]
        return K_train @ model.alphas_, K_test @ model.alphas_

    def _split_rows(self, X_train) -> _TrainRows:
        """The training split, seen through ``X_train`` (the plain or the
        "+"-augmented matrix)."""
        return _TrainRows((), X_train, self.y_train, self.s_train,
                          self.W_fair_train)

    def _fit_base_estimator(
        self, base: str, train: _TrainRows, *, gamma: float,
        method_params: dict, augment: bool = False,
    ):
        """Construct and fit the representation estimator for a base method.

        The one fit path: a cell's (:meth:`_representation`), a tune
        fold's (:meth:`_score_grid_point_direct`) and a ``model`` cell's
        (:meth:`export_model`, figure 1). ``train`` holds the rows the estimator
        sees, the (possibly augmented) training split or one fold's fit
        part; its row count clamps the landmark count and the k-NN
        neighbourhood. The harness ``method_overrides`` for ``base`` are
        merged under the call's ``method_params`` here.
        """
        params = {**self.method_overrides.get(base, {}), **method_params}
        n_rows = len(train.X)
        n_neighbors = min(self.n_neighbors, n_rows - 1)
        if base == "original":
            masker = MaskedRepresentation(protected_columns=self.protected)
            return masker.fit(train.X)

        if base == "pfr":
            # PFR sees the full attribute vector (like iFair/LFR it must
            # *learn* to suppress the protected signal); only the k-NN
            # distances exclude the protected columns, per the paper's
            # definition of WX (§3.1).
            model = PFR(
                n_components=min(self.n_components_, train.X.shape[1]),
                gamma=gamma,
                n_neighbors=n_neighbors,
                exclude_columns=self.protected,
                **{**self._landmark_params(n_rows), **params},
            )
            self._plan_fit(model, train, base, augment, method_params)
            return model

        if base == "kpfr":
            # Kernelized PFR (§3.3.4) — the paper's future-work extension.
            params = {"kernel": "rbf", "n_neighbors": n_neighbors,
                      **self._landmark_params(n_rows), **params}
            capacity = (
                min(int(params["landmarks"]), n_rows)
                if params.get("extension") == "nystrom"
                else n_rows
            )
            model = KernelPFR(
                n_components=min(self.n_components_, capacity - 1),
                gamma=gamma,
                exclude_columns=self.protected,
                **params,
            )
            self._plan_fit(model, train, base, augment, method_params)
            return model

        if base == "ifair":
            params = {"n_prototypes": 10, "max_iter": 100, "seed": self.seed,
                      **params}
            model = IFair(protected_columns=self.protected, **params)
            return model.fit(train.X)

        # Methods are checked where cells compile; hardt is fitted in _run_hardt.
        assert base == "lfr", base
        params = {"n_prototypes": 10, "max_iter": 150, "seed": self.seed,
                  **params}
        return LFR(**params).fit(train.X, train.y, s=train.s)

    def export_model(self, method: str, *, gamma: float = 0.5, **method_params):
        """Fit a base method's estimator and persist it into the run ledger.

        Returns the :class:`~repro.store.LedgerEntry` whose model blob a
        :meth:`~repro.serving.ModelRegistry.register_from_ledger` call can
        promote straight into serving — the experiment → serving handoff
        is those two calls. Requires a ``store``; only base methods
        (``original``/``pfr``/``kpfr``/``ifair``/``lfr``) are exportable —
        augmented ("+") variants and ``hardt`` are pipelines, not a single
        estimator artifact. The fit is one ``model`` cell on the cell
        executor, so an entry already in the ledger is returned unfitted.
        """
        if self._ledger() is None:
            raise ValidationError(
                "export_model needs a run ledger; construct the harness "
                "with store=..."
            )
        if method.endswith("+") or method.rstrip("+") == "hardt":
            raise ValidationError(
                f"cannot export {method!r}: only base representation methods "
                "(original/pfr/kpfr/ifair/lfr) map to a single estimator "
                "artifact"
            )
        _check_method_params(method, method_params, field="export_model",
                             cell=False)
        return self._fit_models([method], gamma=gamma,
                                method_params=method_params)[0]

    def _fit_models(self, methods, *, gamma: float, method_params: dict) -> list:
        """One ``model`` cell per base method, fitted on the training split.

        With a ``store`` each comes back as its ledger entry (a ledgered
        one is not refitted), without one as the fitted estimator.
        """
        from .spec import _cell, _execute

        self.prepare()
        ledger = self._ledger()
        fingerprint = None if ledger is None else self.task_fingerprint()
        cells = [
            _cell(0, method, gamma, 1.0, method_params, None if ledger is None
                  else {"kind": "model", "harness": fingerprint,
                        "method": method, "gamma": float(gamma),
                        "params": method_params},
                  kind="model")
            for method in methods
        ]
        return _execute([self], cells, ledger=ledger)[0]

    def _landmark_params(self, n_train: int) -> dict:
        """Landmark-Nyström kwargs for PFR-family models (empty = exact)."""
        if self.landmarks is None:
            return {}
        return {
            "extension": "nystrom",
            "landmarks": min(int(self.landmarks), n_train),
            "landmark_strategy": self.landmark_strategy,
            "landmark_seed": self.seed,
        }

    def _plan_fit(self, model, train, base, augment, method_params) -> None:
        """Fit a PFR-family model through a cached fit plan.

        The plan (graphs, Laplacians, projected objective matrices — and,
        for ``extension="nystrom"`` models, the landmark selection) depends
        only on the training rows and the structural hyper-parameters, so
        γ-sweeps, repeated ``run_method`` calls and a tune grid's points on
        one fold reuse it; only the γ-mix and the eigensolve run per call.
        Exact models get a :class:`~repro.core.SpectralFitPlan`, landmark
        models a :class:`~repro.core.LandmarkPlan` (chosen by
        :func:`~repro.core.plan_for_estimator`). The key holds the call's
        own ``method_params``: the overrides are fixed per harness.
        """
        key = (*train.key, *self._plan_key(model, base, augment, method_params))
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = plan_for_estimator(model, train.X, train.W_fair)
            if isinstance(plan, SpectralFitPlan):
                # pfr and kpfr on one X build the same WX: build it once.
                for other in self._plan_cache.values():
                    if plan._adopt_graph_stages(other):
                        break
            self._plan_cache[key] = plan
        plan.fit(model)

    @staticmethod
    def _plan_key(model, base, augment, method_params) -> tuple:
        """The plan-cache key of a PFR-family model's structural config."""
        return (
            base,
            augment,
            repr(sorted(method_params.items())),
            getattr(model, "extension", "exact"),
            getattr(model, "landmarks", None),
        )

    # -- evaluation --------------------------------------------------------

    def _scoring_edges(self) -> tuple:
        """The edges of ``W_x_test`` and ``W_fair_test``, prepared once.

        They are rebuilt as soon as either attribute holds another graph
        than the one they came from, so a graph swapped in after
        :meth:`prepare` (an elicited ``WF``, say) is what later cells score.
        """
        graphs = (self.W_x_test, self.W_fair_test)
        cached = self._scoring_cache
        if cached is None or any(a is not b for a, b in zip(cached[0], graphs)):
            cached = (graphs, tuple(_consistency_edges(W) for W in graphs))
            self._scoring_cache = cached
        return cached[1]

    def _evaluate(self, method, y_score, y_pred) -> MethodResult:
        edges_x, edges_fair = self._scoring_edges()
        return MethodResult(
            method=method,
            dataset=self.dataset.name,
            auc=roc_auc_score(self.y_test, y_score),
            consistency_wx=_consistency_from_edges(y_pred, edges_x),
            consistency_wf=_consistency_from_edges(y_pred, edges_fair),
            rates=group_rates(self.y_test, y_pred, self.s_test),
            auc_by_group=group_auc(self.y_test, y_score, self.s_test),
        )

    def run_method(
        self, method: str, *, gamma: float = 0.5, C: float = 1.0, **method_params
    ) -> MethodResult:
        """Run one method end-to-end and evaluate on the test set.

        Method names: ``original``, ``ifair``, ``lfr``, ``pfr`` (suffix
        ``+`` adds the side-information augmentation), and ``hardt`` /
        ``hardt+`` (equalized-odds post-processing on the original
        representation).

        One cell through the executor :func:`run_spec` uses, so with a
        ``store`` a ledgered cell is decoded instead of recomputed and a
        computed one is persisted before it is read back.
        """
        return self._run_cells([method], [gamma], {**method_params, "C": C},
                               None)[0]

    def _run_method_direct(
        self, method: str, *, gamma: float, C: float, method_params: dict
    ) -> MethodResult:
        """Evaluate one cell, with no ledger (what the executor runs).

        A γ-free method is evaluated once per (method, C, params) and
        scoring graphs; each call returns its own copy of that result.
        """
        if method.rstrip("+") not in _GAMMA_FREE_METHODS:
            return self._compute_method(
                method, gamma=gamma, C=C, method_params=method_params
            )
        key = ("result", method, float(C), repr(sorted(method_params.items())))
        edges = self._scoring_edges()
        cached = self._plan_cache.get(key)
        if cached is None or cached[0] is not edges:
            cached = (edges, self._compute_method(
                method, gamma=gamma, C=C, method_params=method_params
            ))
            self._plan_cache[key] = cached
        return copy.deepcopy(cached[1])

    def _compute_method(
        self, method: str, *, gamma: float, C: float, method_params: dict
    ) -> MethodResult:
        if method.rstrip("+") == "hardt":
            return self._run_hardt(augment=method.endswith("+"), C=C)

        Z_train, Z_test = self._representation(
            method, gamma=gamma, method_params=method_params
        )
        classifier, Z_test = _classify(Z_train, self.y_train, Z_test, C)
        y_score = classifier.predict_proba(Z_test)[:, 1]
        y_pred = classifier.predict(Z_test)
        return self._evaluate(method, y_score, y_pred)

    def _run_hardt(self, *, augment: bool, C: float) -> MethodResult:
        """Hardt post-processing on top of the (masked) original predictor."""
        base_name = "original+" if augment else "original"
        Z_train, Z_test = self._representation(
            base_name, gamma=0.0, method_params={}
        )
        classifier = LogisticRegression(C=C).fit(Z_train, self.y_train)
        train_pred = classifier.predict(Z_train)
        post = EqualizedOddsPostProcessor(seed=self.seed).fit(
            self.y_train, train_pred, self.s_train
        )
        test_base = classifier.predict(Z_test)
        y_pred = post.predict(test_base, self.s_test)
        # The derandomized positive-probability is the natural score.
        y_score = post.predict_proba_positive(test_base, self.s_test)
        name = "hardt+" if augment else "hardt"
        result = self._evaluate(name, y_score, y_pred)
        result.extras["expected_error"] = post.expected_error_
        return result

    def run_methods(
        self, methods, *, gamma: float = 0.5, workers=None, **kwargs
    ) -> dict:
        """Run several methods; returns ``{name: MethodResult}``.

        Compiles one cell per method onto the executor :func:`run_spec`
        uses. ``workers=None`` runs serially on this object (its plan
        cache carries across calls); an int / ``"auto"`` / an
        :class:`~repro.experiments.parallel.Executor` splits the cells
        into contiguous parts, one per worker. Results are bitwise
        identical either way. With a ``store``, ledgered cells are
        skipped before dispatch and every result is read back.
        """
        methods = list(methods)
        results = self._run_cells(methods, [gamma], kwargs, workers)
        return dict(zip(methods, results))

    def gamma_sweep(
        self, gammas, *, method: str = "pfr", workers=None, **kwargs
    ) -> list:
        """Evaluate a method across γ values (Figures 4, 7, 10).

        Compiles one cell per γ onto the executor :func:`run_spec` uses.
        For the PFR family every point reuses a cached
        :class:`~repro.core.SpectralFitPlan` — graphs, Laplacians and
        projected objective matrices are built once, and each γ costs one
        mix + eigensolve (plus the downstream classifier). With
        ``workers`` set, the γ points split into contiguous parts, one per
        worker; each worker builds the plan once and sweeps its part, and
        the results are bitwise identical to a serial sweep.

        With a ``store``, completed γ points are skipped before dispatch —
        an interrupted sweep resumes at the missing cells, and widening
        the grid re-pays only the new γ values.
        """
        gammas = [float(g) for g in gammas]
        return self._run_cells([method], gammas, kwargs, workers)

    def _run_cells(self, methods, gammas, kwargs: dict, workers) -> list:
        """Run methods × γ on this harness through the cell executor."""
        from .spec import _run_calls

        self.prepare()
        return _run_calls([self], methods, gammas, kwargs,
                          ledger=self._ledger(), workers=workers)

    # -- hyper-parameter tuning (the paper's 5-fold grid search) -----------

    def tune(
        self,
        method: str,
        param_grid,
        *,
        n_splits: int = 5,
        scoring: str = "roc_auc",
        workers=None,
    ) -> dict:
        """5-fold grid search over representation + classifier parameters.

        The grid may contain representation parameters (``gamma``, method
        keyword arguments) and the downstream classifier's ``C``. Returns
        ``{"best_params", "best_score", "results"}``.

        Each grid point is one ``tuned_point`` cell on the executor
        :func:`run_spec` uses, so ``workers`` and a ``store`` behave as for
        :meth:`run_methods`: bitwise identical serial or parallel, ledgered
        points skipped. Its folds fit through the cells' own fit path,
        ``method_overrides`` included; their plans are built once per
        process and dropped when the search returns.

        Tunable methods: ``original``, ``pfr``, ``ifair`` and ``lfr``.
        """
        from .spec import _cell, _execute

        if method not in _TUNE_METHODS:
            raise ValidationError(
                f"tune() does not support method {method!r}; use one of "
                f"{'/'.join(_TUNE_METHODS)}"
            )
        if scoring not in _SCORERS:
            raise ValidationError(
                f"unknown scoring {scoring!r}; use one of {'/'.join(_SCORERS)}"
            )
        self.prepare()
        ledger = self._ledger()
        fingerprint = None if ledger is None else self.task_fingerprint()
        cv = (int(n_splits), str(scoring))
        points, cells = [], []
        for point in ParameterGrid(param_grid):
            params = dict(point)
            C = params.pop("C", 1.0)
            gamma = params.pop("gamma", 0.5)
            # A point is keyed as scored: the overrides, then the grid point.
            task = None if fingerprint is None else dict(
                kind="tuned_point", harness=fingerprint, method=str(method),
                params={**self.method_overrides.get(method, {}), **point},
                n_splits=cv[0], scoring=cv[1],
            )
            cells.append(_cell(0, method, gamma, C, params, task,
                               kind="tuned_point", cv=cv))
            points.append({**params, "C": C, "gamma": gamma})
        try:
            scores = _execute([self], cells, ledger=ledger, workers=workers)[0]
        finally:
            self._plan_cache = {key: value for key, value
                                in self._plan_cache.items() if key[0] != "fold"}
        best = {"best_params": None, "best_score": -np.inf}
        for params, score in zip(points, scores):
            if score > best["best_score"]:
                best = {"best_params": dict(params), "best_score": score}
        best["results"] = [
            {"params": params, "mean_score": score}
            for params, score in zip(points, scores)
        ]
        return best

    def _score_grid_point_direct(
        self, method: str, *, gamma: float, C: float, method_params: dict,
        cv: tuple,
    ) -> float:
        """Mean cross-validation score of one grid point, with no ledger
        (what the executor runs for a ``tuned_point`` cell).

        On each fold the representation is fitted on the fit part through
        :meth:`_fit_base_estimator`, the classifier on its output, and
        ``cv``'s scoring scores the validation part.
        """
        n_splits, scoring = cv
        scores = []
        for fold, X_val, y_val in self._cv_folds(n_splits):
            model = self._fit_base_estimator(
                method, fold, gamma=gamma, method_params=method_params
            )
            classifier, Z_val = _classify(
                model.transform(fold.X), fold.y, model.transform(X_val), C
            )
            scores.append(_SCORERS[scoring](y_val, classifier, Z_val))
        return float(np.mean(scores))

    def _cv_folds(self, n_splits: int) -> list:
        """tune()'s stratified folds of the training split, built once:
        ``(fit rows, X_val, y_val)`` per fold."""
        key = ("fold", n_splits)
        if key not in self._plan_cache:
            cv = StratifiedKFold(n_splits=n_splits, shuffle=True, seed=self.seed)
            X, y, s = self.X_train, self.y_train, self.s_train
            self._plan_cache[key] = [
                (_TrainRows(("fold", fit.tobytes()), X[fit], y[fit], s[fit],
                            restrict_graph(self.W_fair_train, fit)),
                 X[val], y[val])
                for fit, val in cv.split(X, y)
            ]
        return self._plan_cache[key]
