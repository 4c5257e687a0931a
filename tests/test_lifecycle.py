"""Tests for repro.lifecycle — drift detection and auto re-promotion.

The loop under test: served/streamed rows are scored against the
fit-time fidelity baseline (DriftMonitor), a RefreshPolicy decides when
the staleness warrants a warm-start refit, and LifecycleController
drives refresh → ledger (parent-linked entry) → registry (promoted
version), rolling back to the previous version when the refreshed model
regresses on an in-distribution holdout.
"""

from functools import partial

import numpy as np
import pytest

from repro import PFR, KernelPFR
from repro.core import LandmarkPlan
from repro.exceptions import ValidationError
from repro.graphs import knn_graph, median_heuristic
from repro.lifecycle import (
    DriftMonitor,
    LifecycleController,
    RefreshPolicy,
    holdout_agreement,
    scorer_for,
)
from repro.obs.metrics import MetricsRegistry
from repro.serving import ModelRegistry
from repro.store import RunLedger


@pytest.fixture
def fitted_setup(rng):
    X = rng.normal(size=(300, 6))
    w_fair = knn_graph(X, n_neighbors=8)
    estimator = PFR(
        n_components=3, gamma=0.5, extension="nystrom", landmarks=80
    )
    plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
    plan.fit(estimator)
    return plan, estimator, X


def _controller(plan, estimator, tmp_path, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("policy", RefreshPolicy(stale_fraction=0.5, min_rows=32))
    kwargs.setdefault("ledger", RunLedger(tmp_path / "ledger"))
    return LifecycleController(
        plan,
        estimator,
        registry=ModelRegistry(tmp_path / "registry"),
        name="pfr-live",
        **kwargs,
    )


class TestDriftMonitor:
    def test_snapshot_tracks_window_and_floor(self):
        monitor = DriftMonitor(window=4, floor=0.5, metrics=MetricsRegistry())
        monitor.observe([0.9, 0.8])
        monitor.observe([0.2, 0.1, 0.05])  # evicts 0.9
        snap = monitor.snapshot()
        assert snap["count"] == 4 and snap["total"] == 5
        assert snap["drift_fraction"] == pytest.approx(0.75)

    def test_empty_snapshot_is_json_safe(self):
        snap = DriftMonitor(metrics=MetricsRegistry()).snapshot()
        assert snap["count"] == 0 and snap["drift_fraction"] == 0.0

    def test_floor_defaults_to_baseline_p05(self):
        monitor = DriftMonitor(
            baseline={"p05": 0.7}, metrics=MetricsRegistry()
        )
        assert monitor.floor == pytest.approx(0.7)

    def test_rebase_resets_window_against_new_floor(self):
        monitor = DriftMonitor(floor=0.5, metrics=MetricsRegistry())
        monitor.observe([0.1, 0.2])
        monitor.rebase({"p05": 0.3})
        snap = monitor.snapshot()
        assert snap["count"] == 0 and snap["floor"] == pytest.approx(0.3)

    def test_observations_mirror_into_metrics(self):
        metrics = MetricsRegistry()
        monitor = DriftMonitor(floor=0.5, metrics=metrics, name="m")
        monitor.observe([0.9, 0.1])
        assert metrics.gauge_value(
            "lifecycle.drift_fraction", model="m"
        ) == pytest.approx(0.5)
        assert metrics.histogram_summary(
            "lifecycle.fidelity", model="m"
        )["count"] == 2

    def test_observe_returns_its_snapshot(self):
        monitor = DriftMonitor(window=4, floor=0.5, metrics=MetricsRegistry())
        assert monitor.observe([0.9, 0.2, 0.1]) == monitor.snapshot()
        assert monitor.observe([]) == monitor.snapshot()

    def test_invalid_window_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            DriftMonitor(window=0, metrics=MetricsRegistry())

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, window):
        # A NaN window used to escape as a bare ValueError from int().
        with pytest.raises(ValidationError, match="window must be finite"):
            DriftMonitor(window=window, metrics=MetricsRegistry())

    @pytest.mark.parametrize("floor", [float("nan"), float("inf")])
    def test_non_finite_floor_rejected(self, floor):
        # A NaN floor used to read every row as in-distribution: scores
        # 0.0/0.1/-0.5 gave drift 0.0 where floor 0.5 gives 1.0.
        with pytest.raises(ValidationError, match="floor must be finite"):
            DriftMonitor(floor=floor, metrics=MetricsRegistry())


class TestRefreshPolicy:
    def test_all_three_gates(self):
        policy = RefreshPolicy(
            stale_fraction=0.5, min_rows=10, min_interval=60.0
        )
        calm = {"count": 100, "drift_fraction": 0.1}
        drifted = {"count": 100, "drift_fraction": 0.9}
        thin = {"count": 5, "drift_fraction": 1.0}
        assert policy.should_refresh(drifted)
        assert not policy.should_refresh(calm)
        assert not policy.should_refresh(thin)
        # Hysteresis: a refresh 10 s ago blocks; one 120 s ago does not.
        assert not policy.should_refresh(drifted, now=100.0, last_refresh=90.0)
        assert policy.should_refresh(drifted, now=100.0, last_refresh=-20.0)

    @pytest.mark.parametrize(
        "kwargs", [
            {"stale_fraction": 0.0},
            {"stale_fraction": 1.5},
            {"min_interval": -1.0},
            {"min_rows": 0},
            # A NaN min_interval used to make the throttle never hold.
            {"min_interval": float("nan")},
            {"min_interval": float("inf")},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            RefreshPolicy(**kwargs)

    @pytest.mark.parametrize("min_rows", [float("nan"), float("inf")])
    def test_non_finite_min_rows_rejected(self, min_rows):
        # A NaN min_rows used to be accepted, and then the row-count gate
        # never held: a 1-row window with drift 1.0 refreshed.
        with pytest.raises(ValidationError, match="min_rows must be finite"):
            RefreshPolicy(min_rows=min_rows)


class TestScorerFor:
    def test_discriminates_drift_on_landmark_pfr(self, fitted_setup):
        _, estimator, X = fitted_setup
        score = scorer_for(estimator)
        assert score is not None
        in_dist = score(X[:50])
        far = score(X[:50] + 6.0)
        assert in_dist.shape == (50,)
        assert float(np.mean(in_dist)) > float(np.mean(far)) + 0.2

    def test_precomputed_embedding_matches_transform(self, fitted_setup):
        _, estimator, X = fitted_setup
        score = scorer_for(estimator)
        rows = X[:10]
        np.testing.assert_allclose(
            score(rows), score(rows, estimator.transform(rows)), atol=1e-12
        )

    ESTIMATORS = {
        "pfr": PFR,
        "kpfr-z": partial(KernelPFR, constraint="z"),
        "kpfr-v": partial(KernelPFR, constraint="v"),
    }

    @staticmethod
    def _plan(make, exclude, which, rng):
        """A fitted root plan, or a refreshed child fitted after its refresh,
        with the estimator that fit populated and rows to score."""
        X = rng.normal(size=(600, 6))
        params = dict(n_components=3, gamma=0.5, extension="nystrom",
                      exclude_columns=exclude)
        estimator = make(landmarks=128, **params)
        plan = LandmarkPlan.for_estimator(
            estimator, X, knn_graph(X, n_neighbors=8)
        )
        plan.fit(estimator)
        rows = X[:100] + rng.normal(scale=0.5, size=(100, 6))
        if which == "child":
            plan.extend(rows + 1.5)
            plan = plan.refresh()
            estimator = plan.fit(make(landmarks=plan.n_landmarks, **params))
        return plan, estimator, rows

    # ids name the estimator and the plan only where they are not PFR and
    # the root, so the PFR root cases keep their ids "default"/"exclude".
    @pytest.mark.parametrize("kind,exclude,which", [
        pytest.param(kind, exclude, which, id="-".join(filter(None, (
            None if kind == "pfr" else kind,
            "default" if exclude is None else "exclude",
            None if which == "root" else which,
        ))))
        for kind in sorted(ESTIMATORS)
        for exclude in (None, [0])
        for which in ("root", "child")
    ])
    def test_matches_plan_score_rows_bitwise(self, rng, kind, exclude, which):
        # The serving /drift scorer and the plan's score_rows are one
        # scorer: bit for bit the same column view, bandwidth and maps.
        plan, estimator, rows = self._plan(
            self.ESTIMATORS[kind], exclude, which, rng
        )
        score = scorer_for(estimator)
        expected = plan.score_rows(rows)
        np.testing.assert_array_equal(score(rows), expected)
        np.testing.assert_array_equal(
            score(rows, estimator.transform(rows)), expected
        )

    def test_refit_on_another_plan_leaves_scores_alone(self, rng):
        plan, estimator, rows = self._plan(PFR, None, "root", rng)
        before = plan.score_rows(rows)
        X_other = rng.normal(loc=2.0, size=(400, 6))
        LandmarkPlan.for_estimator(
            estimator, X_other, knn_graph(X_other, n_neighbors=8)
        ).fit(estimator)
        assert not np.array_equal(scorer_for(estimator)(rows), before)
        np.testing.assert_array_equal(plan.score_rows(rows), before)

    def test_exact_fit_has_no_scorer(self, rng):
        X = rng.normal(size=(60, 4))
        model = PFR(n_components=2).fit(X, knn_graph(X, n_neighbors=5))
        assert scorer_for(model) is None


class TestHoldoutAgreement:
    def test_mean_of_score_rows(self, fitted_setup):
        plan, _, X = fitted_setup
        value = holdout_agreement(plan, X[:40])
        np.testing.assert_allclose(
            value, float(np.mean(plan.score_rows(X[:40])))
        )

    def test_rejects_empty_holdout(self, fitted_setup):
        plan, _, _ = fitted_setup
        with pytest.raises(ValidationError, match="holdout"):
            holdout_agreement(plan, np.empty((0, 6)))


class TestLifecycleController:
    def test_requires_fitted_landmark_plan(self, fitted_setup, tmp_path):
        plan, estimator, X = fitted_setup
        unfitted = LandmarkPlan.for_estimator(
            PFR(n_components=3, gamma=0.5, extension="nystrom", landmarks=80),
            X,
            knn_graph(X, n_neighbors=8),
        )
        with pytest.raises(ValidationError, match="fitted plan"):
            _controller(unfitted, estimator, tmp_path)
        with pytest.raises(ValidationError, match="LandmarkPlan"):
            _controller(object(), estimator, tmp_path)

    def test_requires_a_ledger(self, fitted_setup, tmp_path):
        # Every registered version is a ledger entry first: no ledger-less
        # path registers a model the ledger cannot trace.
        plan, estimator, _ = fitted_setup
        with pytest.raises(ValidationError, match="needs a ledger"):
            _controller(plan, estimator, tmp_path, ledger=None)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_holdout_tolerance_rejected(
        self, fitted_setup, tmp_path, tolerance
    ):
        # A NaN tolerance used to make a regressed refresh never roll back.
        plan, estimator, X = fitted_setup
        with pytest.raises(
            ValidationError, match="holdout_tolerance must be finite"
        ):
            _controller(plan, estimator, tmp_path, holdout=X[:40],
                        holdout_tolerance=tolerance)

    def test_ensure_registered_is_idempotent(self, fitted_setup, tmp_path):
        plan, estimator, _ = fitted_setup
        controller = _controller(plan, estimator, tmp_path)
        assert controller.ensure_registered()["version"] == 1
        assert controller.ensure_registered()["version"] == 1
        assert len(controller.registry.versions("pfr-live")) == 1

    def test_corrupt_manifest_fails_before_any_fit(
        self, fitted_setup, tmp_path, monkeypatch
    ):
        # Regression: "not registered" also swallowed the corrupt-manifest
        # error, so the plan was fitted and register() then failed on it.
        plan, estimator, _ = fitted_setup
        controller = _controller(plan, estimator, tmp_path)
        manifest = tmp_path / "registry" / "pfr-live" / "manifest.json"
        manifest.parent.mkdir(parents=True)
        manifest.write_text("{not json", encoding="utf-8")
        fits = []
        fit = LandmarkPlan.fit

        def spy(plan, model):
            fits.append(model)
            return fit(plan, model)

        monkeypatch.setattr(LandmarkPlan, "fit", spy)
        with pytest.raises(ValidationError, match="corrupt registry manifest"):
            controller.ensure_registered()
        assert fits == []

    def test_in_distribution_traffic_never_refreshes(
        self, fitted_setup, tmp_path, rng
    ):
        plan, estimator, X = fitted_setup
        controller = _controller(plan, estimator, tmp_path)
        controller.ensure_registered()
        for _ in range(3):
            event = controller.ingest(
                X[rng.integers(0, X.shape[0], size=40)]
            )
            assert event["refresh"] is None
        assert controller.status()["refreshes"] == 0

    def test_drift_triggers_refresh_and_promotion(
        self, fitted_setup, tmp_path, rng
    ):
        plan, estimator, X = fitted_setup
        controller = _controller(plan, estimator, tmp_path)
        controller.ensure_registered()
        event = None
        for _ in range(5):
            event = controller.ingest(
                X[rng.integers(0, X.shape[0], size=40)] + 6.0
            )
            if event["refresh"] is not None:
                break
        refresh = event["refresh"]
        assert refresh is not None and not refresh["rolled_back"]
        assert refresh["version"] == 2
        # The registry now serves the refreshed version...
        record = controller.registry.record("pfr-live")
        assert record.version == 2 and record.is_latest
        assert "extend" in record.stage_digests
        # ...and the ledger links child to parent.
        entries = controller.ledger.ls(kind="lifecycle_model")
        child = [e for e in entries if e.parent is not None]
        assert len(child) == 1
        assert len(controller.ledger.lineage(child[0].digest)) == 2
        # The controller hot-swapped to the child plan and rebased.
        assert controller.plan.parent is plan
        assert controller.monitor.snapshot()["count"] == 0

    def test_forced_refresh_needs_pending_rows(self, fitted_setup, tmp_path):
        plan, estimator, _ = fitted_setup
        controller = _controller(plan, estimator, tmp_path)
        with pytest.raises(ValidationError, match="pending rows"):
            controller.refresh()

    def test_holdout_regression_rolls_back(self, fitted_setup, tmp_path, rng):
        plan, estimator, X = fitted_setup
        controller = _controller(
            plan,
            estimator,
            tmp_path,
            holdout=X[rng.choice(X.shape[0], 80, replace=False)],
            holdout_tolerance=0.0,
        )
        controller.ensure_registered()
        # An extreme shift: the refreshed landmark set serves the
        # in-distribution holdout worse, so the refresh must roll back.
        controller.ingest(
            X[rng.integers(0, X.shape[0], size=60)] + 50.0
        )
        event = controller.refresh() if not controller.history else (
            controller.history[-1]
        )
        assert event["rolled_back"]
        assert event["holdout_child"] < event["holdout_parent"]
        # @latest still points at version 1; the regressed version stays
        # on disk for audit.
        record = controller.registry.record("pfr-live")
        assert record.version == 1 and record.is_latest
        assert len(controller.registry.versions("pfr-live")) == 2
        # The parent plan stays live.
        assert controller.plan is plan
        assert controller.status()["rollbacks"] == 1

    def test_per_plan_invariants_are_computed_once(
        self, tmp_path, rng, monkeypatch
    ):
        # The landmark bandwidth median runs once per plan-graph build and
        # never while scoring; the holdout is scored once for the root and
        # once per refresh, the accepted child's score carrying over as
        # the next parent's. Events must still report the true scores.
        import repro.core.approx as approx_module
        import repro.graphs.knn as knn_module
        import repro.lifecycle as lifecycle_module

        X = rng.normal(size=(300, 6))
        holdout = X[rng.choice(X.shape[0], 80, replace=False)]
        w_fair = knn_graph(X, n_neighbors=8)
        calls = {"median": 0, "median_in_scoring": 0, "holdout": 0}
        scoring = []

        def counted_median(view, **kwargs):
            calls["median"] += 1
            calls["median_in_scoring"] += bool(scoring)
            return median_heuristic(view, **kwargs)

        def counted_holdout(plan, rows):
            calls["holdout"] += 1
            return holdout_agreement(plan, rows)

        score_rows = LandmarkPlan.score_rows

        def tracked_score_rows(plan, *args, **kwargs):
            scoring.append(plan)
            try:
                return score_rows(plan, *args, **kwargs)
            finally:
                scoring.pop()

        children = []
        refresh = LandmarkPlan.refresh

        def tracked_refresh(plan, **kwargs):
            children.append(refresh(plan, **kwargs))
            return children[-1]

        monkeypatch.setattr(knn_module, "median_heuristic", counted_median)
        monkeypatch.setattr(approx_module, "median_heuristic", counted_median)
        monkeypatch.setattr(lifecycle_module, "holdout_agreement", counted_holdout)
        monkeypatch.setattr(LandmarkPlan, "score_rows", tracked_score_rows)
        monkeypatch.setattr(LandmarkPlan, "refresh", tracked_refresh)

        estimator = PFR(
            n_components=3, gamma=0.5, extension="nystrom", landmarks=80
        )
        plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
        plan.fit(estimator)
        controller = _controller(
            plan, estimator, tmp_path, holdout=holdout,
            policy=RefreshPolicy(min_rows=10**6),
        )
        controller.ensure_registered()
        parents = []
        # accept, roll back (extreme shift, zero tolerance), accept again
        for shift, tolerance in ((6.0, np.inf), (50.0, 0.0), (3.0, np.inf)):
            controller.holdout_tolerance = tolerance
            controller.ingest(X[rng.integers(0, X.shape[0], size=60)] + shift)
            parents.append(controller.plan)
            controller.refresh()
        assert [e["rolled_back"] for e in controller.history] == [
            False, True, False,
        ]
        assert calls["median"] == 1 + len(children)
        assert calls["median_in_scoring"] == 0
        assert calls["holdout"] == 1 + len(children)
        for event, parent, child in zip(controller.history, parents, children):
            assert event["holdout_parent"] == holdout_agreement(parent, holdout)
            assert event["holdout_child"] == holdout_agreement(child, holdout)

    def test_one_drift_snapshot_per_ingest(
        self, fitted_setup, tmp_path, rng, monkeypatch
    ):
        # observe() hands ingest the snapshot its gauges were set from, so
        # an ingest copies the score window and takes its quantiles once.
        plan, estimator, X = fitted_setup
        controller = _controller(
            plan, estimator, tmp_path, policy=RefreshPolicy(min_rows=10**6)
        )
        controller.ensure_registered()
        calls = []
        snapshot = DriftMonitor.snapshot

        def counted_snapshot(monitor):
            calls.append(monitor)
            return snapshot(monitor)

        monkeypatch.setattr(DriftMonitor, "snapshot", counted_snapshot)
        for shift in (0.0, 6.0, 6.0):
            event = controller.ingest(
                X[rng.integers(0, X.shape[0], size=40)] + shift
            )
            assert len(calls) == 1
            calls.clear()
            assert event["drift_fraction"] == snapshot(
                controller.monitor
            )["drift_fraction"]

    def test_status_is_json_serialisable(self, fitted_setup, tmp_path):
        import json

        plan, estimator, _ = fitted_setup
        controller = _controller(plan, estimator, tmp_path)
        controller.ensure_registered()
        status = controller.status()
        assert status["serving"]["version"] == 1
        assert status["pending"] == 0
        json.dumps(status)  # must not raise
