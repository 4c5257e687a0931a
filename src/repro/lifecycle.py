"""Production lifecycle: drift detection and automatic landmark refresh.

This module closes the loop that :class:`repro.core.LandmarkPlan` opens
with ``extend()``/``refresh()``. ``extend()`` only scores arriving rows
against the fitted landmark set and buffers them; a windowed
:class:`DriftMonitor` aggregates the scores into drift statistics
against the fit-time fidelity distribution (and mirrors them into the
:mod:`repro.obs` metrics registry), and :class:`RefreshPolicy`, the one
place that decides, says *when* the accumulated staleness warrants a
warm-start refit. :class:`LifecycleController` wires the three together
with the persistence tier:

    plan.extend(batch)  →  DriftMonitor.observe(scores)
        →  RefreshPolicy.should_refresh(...)
            →  plan.refresh()  →  child.fit(clone(estimator))
                →  ledger.put(..., parent=<current digest>)
                    →  registry.register_from_ledger(...)  (promoted)
                        →  holdout check  →  promote(old) on regression

The controller never mutates a model in place: every refresh produces a
new ledger entry (linked to its parent — see
:meth:`repro.store.RunLedger.lineage`) and a new registry version, and
rollback is just re-promoting the previous version, so concurrent
``resolve("@latest")`` readers always observe a complete model.

:func:`scorer_for` builds the per-row drift score from a fitted or
*loaded* artifact (no plan required). It is the one drift scorer: the
serving tier's per-request drift accounting and
:meth:`repro.core.LandmarkPlan.score_rows` both score through it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._validation import check_finite
from .core.approx import LandmarkPlan, _drift_scorer
from .exceptions import ModelNotFoundError, ValidationError
from .ml.base import clone
from .obs import span
from .obs.metrics import MetricsRegistry, get_registry
from .store.ledger import coerce_ledger

__all__ = [
    "DriftMonitor",
    "LifecycleController",
    "RefreshPolicy",
    "holdout_agreement",
    "scorer_for",
]


def scorer_for(model):
    """Per-row drift scorer of a fitted or loaded landmark model.

    Returns a callable ``score(X_rows, Z_rows=None) -> np.ndarray``: the
    scale-aware agreement (:func:`repro.core.row_agreement`) between the
    model's parametric embedding and the graph-smoothing Nyström extension
    over its stored landmark rows. It is the one drift scorer:
    :meth:`repro.core.LandmarkPlan.score_rows` scores through it too, so
    the plan and the served artifact give the same scores bit for bit.
    Pass ``Z_rows`` when the parametric embedding of the rows is already
    in hand (the serving hot path) to skip the redundant ``transform``.

    Returns ``None`` when the artifact carries no landmark coordinates
    (exact fits, or artifacts persisted before landmarks were stored) —
    callers treat that as "drift accounting unavailable for this model".
    """
    return _drift_scorer(model)


def holdout_agreement(plan: LandmarkPlan, X_holdout) -> float:
    """Mean per-row fidelity of ``X_holdout`` under ``plan`` (higher = better)."""
    X_holdout = np.asarray(X_holdout, dtype=np.float64)
    if X_holdout.ndim != 2 or X_holdout.shape[0] == 0:
        raise ValidationError(
            "holdout_agreement needs a non-empty 2-D holdout matrix; got "
            f"shape {X_holdout.shape}"
        )
    return float(np.mean(plan.score_rows(X_holdout)))


class DriftMonitor:
    """Windowed per-row fidelity statistics with :mod:`repro.obs` mirroring.

    Thread-safe: the serving tier calls :meth:`observe` from worker
    threads while a refresh hook polls :meth:`snapshot`.

    Parameters
    ----------
    window:
        Number of most-recent row scores retained for the statistics.
    floor:
        Score below which a row counts as drifted. Defaults to the
        ``p05`` of ``baseline`` (a :meth:`LandmarkPlan.fidelity_baseline`
        dict) when given, else ``0.5``.
    metrics:
        A :class:`repro.obs.MetricsRegistry`; defaults to the process
        registry. Every observation feeds the ``lifecycle.fidelity``
        histogram and refreshes the ``lifecycle.drift_fraction`` gauge,
        labelled ``model=<name>``.
    """

    def __init__(
        self,
        *,
        window: int = 4096,
        floor: float | None = None,
        baseline: dict | None = None,
        metrics: MetricsRegistry | None = None,
        name: str = "model",
    ):
        check_finite(window, name="window")
        if window < 1:
            raise ValidationError(f"window must be >= 1; got {window}")
        if floor is None:
            floor = float(baseline["p05"]) if baseline is not None else 0.5
        else:
            check_finite(floor, name="floor")
        self.window = int(window)
        self.floor = float(floor)
        self.name = str(name)
        self.metrics = metrics if metrics is not None else get_registry()
        self._scores: deque[float] = deque(maxlen=self.window)
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, scores) -> dict:
        """Fold a batch of per-row scores into the window (and metrics).

        Returns the :meth:`snapshot` taken after the fold, the one the
        gauges were set from, so callers need not take a second.
        """
        scores = np.atleast_1d(np.asarray(scores, dtype=np.float64)).ravel()
        if scores.size == 0:
            return self.snapshot()
        values = scores.tolist()
        with self._lock:
            self._scores.extend(values)
            self._total += len(values)
        self.metrics.observe_many("lifecycle.fidelity", values, model=self.name)
        snap = self.snapshot()
        self.metrics.set_gauge(
            "lifecycle.drift_fraction", snap["drift_fraction"], model=self.name
        )
        self.metrics.set_gauge(
            "lifecycle.fidelity_mean", snap["mean"], model=self.name
        )
        return snap

    def snapshot(self) -> dict:
        """Current window statistics as a plain JSON-serialisable dict."""
        with self._lock:
            arr = np.asarray(self._scores, dtype=np.float64)
            total = self._total
        if arr.size == 0:
            return {
                "name": self.name,
                "count": 0,
                "total": total,
                "window": self.window,
                "floor": self.floor,
                "mean": float("nan"),
                "p05": float("nan"),
                "p25": float("nan"),
                "p50": float("nan"),
                "drift_fraction": 0.0,
            }
        p05, p25, p50 = np.quantile(arr, [0.05, 0.25, 0.50])
        return {
            "name": self.name,
            "count": int(arr.size),
            "total": total,
            "window": self.window,
            "floor": self.floor,
            "mean": float(arr.mean()),
            "p05": float(p05),
            "p25": float(p25),
            "p50": float(p50),
            "drift_fraction": float(np.mean(arr < self.floor)),
        }

    def rebase(self, baseline: dict | None = None):
        """Reset the window against a new baseline (post-refresh)."""
        floor = float(baseline["p05"]) if baseline is not None else self.floor
        with self._lock:
            self._scores.clear()
            self.floor = floor
        return self


@dataclass(frozen=True)
class RefreshPolicy:
    """When is accumulated drift worth a warm-start refit?

    A refresh fires only when *all three* gates pass: the window holds at
    least ``min_rows`` scores, at least ``stale_fraction`` of them fall
    below the monitor's floor, and ``min_interval`` seconds have elapsed
    since the previous refresh (hysteresis against refit thrash).
    """

    stale_fraction: float = 0.5
    min_interval: float = 0.0
    min_rows: int = 32

    def __post_init__(self):
        if not 0.0 < self.stale_fraction <= 1.0:
            raise ValidationError(
                f"stale_fraction must be in (0, 1]; got {self.stale_fraction}"
            )
        check_finite(self.min_interval, name="min_interval")
        if self.min_interval < 0:
            raise ValidationError(
                f"min_interval must be >= 0; got {self.min_interval}"
            )
        check_finite(self.min_rows, name="min_rows")
        if self.min_rows < 1:
            raise ValidationError(f"min_rows must be >= 1; got {self.min_rows}")

    def should_refresh(
        self,
        snapshot: dict,
        *,
        now: float | None = None,
        last_refresh: float | None = None,
    ) -> bool:
        """Decide from a :meth:`DriftMonitor.snapshot` dict."""
        if snapshot["count"] < self.min_rows:
            return False
        if snapshot["drift_fraction"] < self.stale_fraction:
            return False
        if last_refresh is not None:
            if now is None:
                now = time.monotonic()
            if now - last_refresh < self.min_interval:
                return False
        return True


def _check_holdout_tolerance(tolerance) -> None:
    """A ValidationError unless ``tolerance`` is finite and ``>= 0``."""
    check_finite(tolerance, name="holdout_tolerance")
    if tolerance < 0:
        raise ValidationError(
            f"holdout_tolerance must be >= 0; got {tolerance}"
        )


class LifecycleController:
    """Drives extend → drift-score → refresh → register → promote.

    Parameters
    ----------
    plan:
        A *fitted* :class:`repro.core.LandmarkPlan` (the warm-start
        state: landmark graph, solve cache, pending rows).
    estimator:
        The estimator template (``PFR``/``KernelPFR`` with
        ``extension="nystrom"``). Refreshes fit a :func:`clone` with
        ``landmarks`` bumped to the child plan's landmark count.
    registry:
        A :class:`repro.serving.ModelRegistry` (or a path for one).
    name:
        Registry model name; each refresh registers + promotes a new
        version of it.
    ledger:
        The :class:`repro.store.RunLedger` (or a path for one); required.
        Every registered model is persisted as a ledger entry whose
        ``parent`` links to the entry it replaced, and registration goes
        through :meth:`ModelRegistry.register_from_ledger` so the
        registry record carries the run's stage digests.
    holdout:
        Optional in-distribution rows. After a refresh the child plan
        must score them no worse than the parent did (within
        ``holdout_tolerance``); otherwise the previous version is
        re-promoted and the parent plan stays live.
    """

    def __init__(
        self,
        plan: LandmarkPlan,
        estimator,
        *,
        registry,
        name: str,
        ledger,
        policy: RefreshPolicy | None = None,
        holdout=None,
        holdout_tolerance: float = 0.05,
        metrics: MetricsRegistry | None = None,
    ):
        from .serving.registry import ModelRegistry

        if not isinstance(plan, LandmarkPlan):
            raise ValidationError(
                "LifecycleController needs a LandmarkPlan; got "
                f"{type(plan).__name__}"
            )
        if plan._last_fit_point is None:
            raise ValidationError(
                "LifecycleController needs a fitted plan: call plan.fit(estimator) "
                "before constructing the controller"
            )
        _check_holdout_tolerance(holdout_tolerance)
        self.ledger = coerce_ledger(ledger)
        if self.ledger is None:
            raise ValidationError("LifecycleController needs a ledger; got None")
        self.plan = plan
        self.estimator = estimator
        self.registry = (
            registry
            if isinstance(registry, ModelRegistry)
            else ModelRegistry(registry)
        )
        self.name = str(name)
        self.policy = policy if policy is not None else RefreshPolicy()
        self.metrics = metrics if metrics is not None else get_registry()
        self.monitor = DriftMonitor(
            baseline=plan.fidelity_baseline(), metrics=self.metrics, name=self.name
        )
        if holdout is not None:
            holdout = np.asarray(holdout, dtype=np.float64)
            if holdout.ndim != 2 or holdout.shape[0] == 0:
                raise ValidationError(
                    "holdout must be a non-empty 2-D matrix; got shape "
                    f"{holdout.shape}"
                )
        self.holdout = holdout
        self.holdout_tolerance = float(holdout_tolerance)
        self._last_refresh: float | None = None
        self._entry_digest: str | None = None
        # (plan, holdout_agreement) of the last plan scored on the holdout:
        # the accepted child of one refresh is the parent of the next.
        self._holdout_score: tuple[LandmarkPlan, float] | None = None
        self.history: list[dict] = []
        self._lock = threading.Lock()

    # -- persistence ---------------------------------------------------

    def _persist(self, plan: LandmarkPlan, estimator, payload: dict):
        """Ledger + registry write; returns (record, entry_digest)."""
        parent = self._entry_digest
        task = {
            "kind": "lifecycle_model",
            "name": self.name,
            "stage_digests": plan.stage_digests(),
            "estimator": type(self.estimator).__name__,
        }
        if parent is not None:
            # Digest-relevant: two refreshes of different parents must
            # never collide even if their stage digests somehow did.
            task["refresh_of"] = parent
        entry = self.ledger.put(task, payload, model=estimator, parent=parent)
        record = self.registry.register_from_ledger(
            self.ledger, entry.digest, self.name, promote=True
        )
        return record, entry.digest

    def ensure_registered(self) -> dict:
        """Register + promote the current (parent) model if ``name`` is absent.

        Idempotent: when the registry already serves ``name`` this only
        records the latest version as the rollback target.
        """
        with self._lock:
            try:
                record = self.registry.record(self.name)
            except ModelNotFoundError:
                record = None
            if record is None:
                record, self._entry_digest = self._persist(
                    self.plan, self._fit(self.plan), {"event": "initial"}
                )
            return {"name": self.name, "version": record.version}

    def _fit(self, plan: LandmarkPlan):
        """A clone of the template fitted by ``plan`` (the live plan or its
        refreshed child) at the live plan's operating point."""
        estimator = clone(self.estimator)
        estimator.landmarks = plan.n_landmarks
        estimator.gamma, estimator.n_components = self.plan._last_fit_point
        return plan.fit(estimator)

    # -- the loop ------------------------------------------------------

    def ingest(self, X_batch, *, w_fair_new=None) -> dict:
        """Score one batch of arriving rows; refresh when the policy fires.

        Returns an event dict: the batch's drift stats plus, when a
        refresh ran, the nested refresh event under ``"refresh"``.
        """
        with self._lock:
            scores = self.plan.extend(X_batch, w_fair_new=w_fair_new)
            snapshot = self.monitor.observe(scores)
            self.metrics.inc("lifecycle.batches", model=self.name)
            self.metrics.inc("lifecycle.rows", float(len(scores)), model=self.name)
            event = {
                "event": "ingest",
                "rows": len(scores),
                "pending": self.plan.n_pending,
                "batch_mean": float(np.mean(scores)),
                "drift_fraction": snapshot["drift_fraction"],
                "refresh": None,
            }
            if self.policy.should_refresh(
                snapshot, last_refresh=self._last_refresh
            ):
                event["refresh"] = self._refresh_locked()
            return event

    def refresh(self) -> dict:
        """Force a refresh now (policy bypassed); returns the event dict."""
        with self._lock:
            return self._refresh_locked()

    def _holdout_of(self, plan: LandmarkPlan) -> float | None:
        """``holdout_agreement`` of ``plan``, reused while it stays live."""
        if self.holdout is None:
            return None
        cached = self._holdout_score
        if cached is not None and cached[0] is plan:
            return cached[1]
        score = holdout_agreement(plan, self.holdout)
        if plan is self.plan:
            self._holdout_score = (plan, score)
        return score

    def _refresh_locked(self) -> dict:
        if self.plan.n_pending == 0:
            raise ValidationError(
                "refresh needs pending rows: feed batches through ingest() "
                "(or plan.extend) first"
            )
        with span("lifecycle.refresh", model=self.name):
            started = time.perf_counter()
            parent = self.plan
            parent_holdout = self._holdout_of(parent)
            child = parent.refresh()
            estimator = self._fit(child)
            child_holdout = self._holdout_of(child)
            previous = None
            try:
                previous = self.registry.record(self.name)
            except ModelNotFoundError:
                pass
            record, entry_digest = self._persist(
                child,
                estimator,
                {
                    "event": "refresh",
                    "n_landmarks": child.n_landmarks,
                    "holdout_parent": parent_holdout,
                    "holdout_child": child_holdout,
                },
            )
            rolled_back = False
            if (
                parent_holdout is not None
                and child_holdout < parent_holdout - self.holdout_tolerance
            ):
                # The refreshed model serves the in-distribution holdout
                # measurably worse: re-point @latest at the parent and
                # keep the parent plan live (the child version stays on
                # disk for audit).
                rolled_back = True
                if previous is not None:
                    self.registry.promote(self.name, previous.version)
                self.metrics.inc("lifecycle.rollbacks", model=self.name)
            else:
                self.plan = child
                self._holdout_score = (child, child_holdout)
                self._entry_digest = entry_digest
                self.monitor.rebase(child.fidelity_baseline())
            self._last_refresh = time.monotonic()
            self.metrics.inc("lifecycle.refreshes", model=self.name)
            self.metrics.set_gauge(
                "lifecycle.last_refresh_seconds",
                time.perf_counter() - started,
                model=self.name,
            )
            event = {
                "event": "refresh",
                "version": record.version,
                "rolled_back": rolled_back,
                "n_landmarks": child.n_landmarks,
                "holdout_parent": parent_holdout,
                "holdout_child": child_holdout,
                "entry_digest": entry_digest,
                "seconds": time.perf_counter() - started,
            }
            self.history.append(event)
            return event

    def status(self) -> dict:
        """One JSON-serialisable view of the whole loop's state."""
        with self._lock:
            try:
                record = self.registry.record(self.name)
                serving = {"version": record.version, "path": str(record.path)}
            except ModelNotFoundError:
                serving = None
            return {
                "name": self.name,
                "n_rows": self.plan.X.shape[0],
                "n_landmarks": self.plan.n_landmarks,
                "pending": self.plan.n_pending,
                "drift": self.monitor.snapshot(),
                "policy": {
                    "stale_fraction": self.policy.stale_fraction,
                    "min_interval": self.policy.min_interval,
                    "min_rows": self.policy.min_rows,
                },
                "refreshes": len(
                    [e for e in self.history if not e["rolled_back"]]
                ),
                "rollbacks": len([e for e in self.history if e["rolled_back"]]),
                "serving": serving,
            }
