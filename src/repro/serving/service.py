"""`TransformService` — the façade tying registry, model and cache together.

This is the object an online decision-making system would hold: it resolves
``name@version`` specs against a :class:`~repro.serving.registry.ModelRegistry`,
keeps the deserialized estimators warm in memory, serves repeated rows
straight from a per-model :class:`~repro.serving.cache.LRUCache`, and counts
everything so operators can see hit rates and throughput. A computed row
is stored on its second sighting: the cache's admission rule records each
row's first miss, so rows that arrive once never fill the LRU. Every public
transform method validates its input once and reaches the model through
one private request path.

Served rows are float64: every servable model returns float64 for the
float64 rows the service hands it, so fixing the format costs those models
no copy. Cache entries are the immutable float64 ``bytes`` of each computed
row: one ``tobytes()`` per computed block, sliced per row. A request with
a hit or an in-request repeat is assembled from those bytes in one join
and decoded with ``np.frombuffer``, so a hit and a miss return the same
bits, and nothing done to a returned array reaches the cache. This row
format lives here alone.

The service is thread-safe: model loading is double-checked under a lock,
caches lock internally, and the counters are guarded separately, so many
request threads can call :meth:`transform` concurrently — the intended
deployment shape behind an HTTP or RPC front end.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .._validation import check_finite
from ..exceptions import ValidationError
from ..io import load_model
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span
from .cache import LRUCache, matrix_digests
from .registry import ModelRegistry, ModelRecord

__all__ = ["TransformService"]

#: Most rows handed to ``model.transform`` at once. Bounds peak memory for
#: transformers with per-row intermediates — KernelPFR materializes an
#: ``(n, n_train)`` kernel block.
_CHUNK_ROWS = 8192

#: Accepted input shape per rank, as request-validation messages name it.
_SHAPES = {
    1: "a non-empty 1-D flat array of numbers",
    2: "a non-empty 2-D array of equal-length number arrays",
}


def _model_transform(model, X: np.ndarray) -> np.ndarray:
    """``model.transform(X)`` as float64, in blocks of at most
    ``_CHUNK_ROWS`` rows: the served row format.

    A model that already returns float64 (every type ``load_model`` can
    serve does) gets its own array back, uncopied.
    """
    if X.shape[0] <= _CHUNK_ROWS:
        return np.asarray(model.transform(X), dtype=np.float64)
    return np.concatenate([
        model.transform(X[start:start + _CHUNK_ROWS])
        for start in range(0, X.shape[0], _CHUNK_ROWS)
    ], dtype=np.float64)


def _row_entries(block: np.ndarray) -> list[bytes]:
    """Each row of a computed float64 block as an immutable ``bytes`` entry:
    one ``tobytes()`` per block, sliced per row."""
    width = block.shape[1] * block.itemsize
    blob = block.tobytes()
    return [blob[start:start + width] for start in range(0, len(blob), width)]


@dataclass
class _ServedModel:
    """A loaded model plus its serving machinery: its cache of float64
    row bytes and, opted in, its drift scorer and monitor."""

    record: ModelRecord
    model: object
    cache: LRUCache
    # Drift accounting (None unless the service opted in AND the artifact
    # carries landmark coordinates): a per-row scorer rebuilt from the
    # loaded model and the windowed monitor its samples feed.
    scorer: object = None
    monitor: object = None


class TransformService:
    """Serve transforms for every model in a registry.

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry` instance, or a path handed to one.
    cache_size:
        Per-model LRU capacity in rows; ``0`` disables result caching. A
        computed row is stored on its second sighting, so a row seen once
        is computed again on its next request.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` request accounting lands
        in. Defaults to a private registry per service, so two services
        in one process never mix their latency distributions; pass
        :func:`repro.obs.get_registry` to publish into the process-global
        one instead.
    drift:
        Opt-in per-request drift accounting. When True, the rows each
        request computes (its cache misses) have up to ``drift_sample`` of
        them re-scored through
        :func:`repro.lifecycle.scorer_for` (parametric map vs.
        graph-smoothing extension over the artifact's landmarks) into a
        per-model :class:`repro.lifecycle.DriftMonitor`; read the
        aggregate through :meth:`drift_status` or ``GET /drift``. Models
        whose artifacts carry no landmark coordinates serve normally but
        report no drift.
    drift_sample:
        Max rows scored per request (stride-sampled — bounds the hot-path
        overhead regardless of batch size).
    drift_floor:
        Handed to each model's :class:`DriftMonitor`: rows scoring below
        it count as drifted, over the monitor's default window.
    """

    def __init__(
        self,
        registry,
        *,
        cache_size: int = 100_000,
        metrics: MetricsRegistry | None = None,
        drift: bool = False,
        drift_sample: int = 32,
        drift_floor: float = 0.5,
    ):
        # Checked here, not when the first request builds a model's cache.
        if not isinstance(cache_size, (int, np.integer)) or cache_size < 0:
            raise ValidationError(
                f"cache_size must be an integer >= 0; got {cache_size!r}"
            )
        self.registry = (
            registry if isinstance(registry, ModelRegistry) else ModelRegistry(registry)
        )
        self.cache_size = int(cache_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if drift and drift_sample < 1:
            raise ValidationError(
                f"drift_sample must be >= 1 when drift is enabled; got "
                f"{drift_sample}"
            )
        if drift:
            # Checked here, not at the first request's lazy DriftMonitor.
            check_finite(drift_floor, name="drift_floor")
        self.drift = bool(drift)
        self.drift_sample = int(drift_sample)
        self.drift_floor = float(drift_floor)
        self._models: dict[tuple[str, int], _ServedModel] = {}
        # Pinned name@version specs are immutable, so their resolution is
        # memoized; bare names / @latest re-resolve through the registry
        # every call so promotions take effect immediately. The memo dict
        # has its own lock (not _load_lock): resolution must never wait on
        # a slow model deserialization, and every read-check-write on the
        # dict happens under it so concurrent first resolutions cannot
        # interleave a torn mutation.
        self._resolved: dict[str, tuple[str, int]] = {}
        self._resolve_lock = threading.Lock()
        self._load_lock = threading.Lock()

    # ------------------------------------------------------------ serving
    def transform(self, spec: str, X) -> np.ndarray:
        """Transform a batch of rows through the model resolved from ``spec``.

        ``spec`` is ``name``, ``name@latest`` or ``name@<version>``. ``X``
        is a non-empty ``(n, m)`` matrix whose width must match the
        registered input schema. Cached rows skip the model entirely.
        """
        return self.transform_versioned(spec, X)[1]

    def transform_versioned(self, spec: str, X) -> tuple[str, np.ndarray]:
        """Like :meth:`transform`, returning ``(resolved_spec, Z)``.

        ``resolved_spec`` is the pinned ``name@version`` that actually
        produced ``Z``. The spec is resolved exactly once, so under a
        concurrent ``promote`` the label and the rows can never disagree —
        the guarantee an HTTP front end surfaces to its clients.
        """
        served, X = self._checked(spec, X, "rows")
        return served.record.spec, self._serve(served, X)

    def transform_one(self, spec: str, row) -> np.ndarray:
        """Transform a single 1-D feature row; returns its representation.

        The row is served as a one-row batch, so it shares the cache with
        :meth:`transform`. The returned row is **read-only** (hit or miss
        alike — mutability must not depend on cache state): it is decoded
        from immutable bytes, so mutating it raises ``ValueError`` and it
        cannot be made writeable. Copy it if you need a scratch buffer.
        """
        return self.transform_one_versioned(spec, row)[1]

    def transform_one_versioned(self, spec: str, row) -> tuple[str, np.ndarray]:
        """Like :meth:`transform_one`, returning ``(resolved_spec, z)``.

        One resolution covers both the label and the computation, exactly
        like :meth:`transform_versioned`.
        """
        served, X = self._checked(spec, row, "row")
        z = self._serve(served, X)[0]
        # Decoded from immutable bytes: no caller can make it writeable.
        z = np.frombuffer(z.tobytes(), dtype=z.dtype).reshape(z.shape)
        return served.record.spec, z

    # ------------------------------------------------------ observability
    def stats(self) -> dict:
        """Aggregate and per-model serving statistics.

        Returns ``{"models": {spec: {...}}, "totals": {...}}``. Every
        model entry carries the original counters (``requests``, ``rows``,
        ``seconds``, and ``cache``: the LRU's ``info()``, whose ``declined``
        counts the first sightings it kept out) plus the derived rates
        computed *here, once* from the latency histogram — ``rows_per_sec``,
        ``mean_latency_s`` and a ``latency`` summary with deterministic
        p50/p90/p99 — so callers stop re-deriving them (each subtly
        differently) from raw totals. ``seconds`` is the
        histogram's Kahan-compensated sum, so it no longer drifts the way
        the old ``+=`` accumulator did under millions of tiny requests.
        """
        # Snapshot the model table under the load lock — _served() mutates
        # the dict there, so an unguarded iteration would race
        # (RuntimeError: dict changed size). The metrics registry locks
        # internally.
        with self._load_lock:
            served_models = list(self._models.values())
        snapshot = {}
        for served in served_models:
            spec = served.record.spec
            latency = self.metrics.histogram_summary(
                "serving.request_seconds", model=spec
            )
            requests = latency["count"]
            rows = int(self.metrics.counter_value("serving.rows", model=spec))
            seconds = latency["sum"]
            rows_per_sec = rows / seconds if seconds else 0.0
            snapshot[spec] = {
                "model_type": served.record.model_type,
                "requests": requests,
                "rows": rows,
                "seconds": seconds,
                "rows_per_sec": rows_per_sec,
                "mean_latency_s": latency["mean"],
                "latency": latency,
                "cache": served.cache.info(),
            }
        total_rows = sum(entry["rows"] for entry in snapshot.values())
        total_seconds = sum(entry["seconds"] for entry in snapshot.values())
        total_requests = sum(entry["requests"] for entry in snapshot.values())
        totals = {
            "requests": total_requests,
            "rows": total_rows,
            "seconds": total_seconds,
            "rows_per_sec": total_rows / total_seconds if total_seconds else 0.0,
            "mean_latency_s": (
                total_seconds / total_requests if total_requests else 0.0
            ),
            "cache_hits": sum(entry["cache"]["hits"] for entry in snapshot.values()),
            "cache_misses": sum(
                entry["cache"]["misses"] for entry in snapshot.values()
            ),
        }
        return {"models": snapshot, "totals": totals}

    def publish_cache_gauges(self) -> None:
        """Set each warm model's cache counters as gauges in :attr:`metrics`.

        ``serving.cache.{size,hits,misses,declined}{model=spec}``, read at
        scrape time (``GET /metrics``). The model table is copied without
        the load lock, so a scrape never waits on a cold model load.
        """
        for served in self._models.copy().values():
            info = served.cache.info()
            for key in ("size", "hits", "misses", "declined"):
                self.metrics.set_gauge(
                    f"serving.cache.{key}", info[key], model=served.record.spec
                )

    # ------------------------------------------------------------ internal
    def _resolve(self, spec: str) -> tuple[str, int]:
        """Resolve ``spec``, memoizing pinned ``name@version`` forms.

        Every read and write of the ``_resolved`` memo happens under its
        dedicated lock — the registry round-trip for a cold spec runs
        outside it (so a slow resolve never serializes the hot path), and
        two threads racing the same first resolution both compute the
        same immutable answer, with ``setdefault`` keeping the insert
        atomic.
        """
        with self._resolve_lock:
            key = self._resolved.get(spec)
        if key is not None:
            return key
        key = self.registry.resolve(spec)
        selector = str(spec).partition("@")[2]
        if selector not in ("", "latest"):
            with self._resolve_lock:
                key = self._resolved.setdefault(spec, key)
        return key

    def _served(self, spec: str) -> _ServedModel:
        key = self._resolve(spec)
        name, version = key
        served = self._models.get(key)
        if served is not None:
            return served
        with self._load_lock:
            served = self._models.get(key)
            if served is None:
                record = self.registry.record(name, version)
                # Deserialize straight from the record's artifact path —
                # registry.load() would redundantly re-resolve and re-read
                # the manifest we just consulted.
                model = load_model(record.path)
                if not callable(getattr(model, "transform", None)):
                    raise ValidationError(
                        f"{record.spec} is a {record.model_type}, which has "
                        "no transform method and cannot be served by "
                        "TransformService"
                    )
                scorer = monitor = None
                if self.drift:
                    # Lazy import: lifecycle pulls in the numeric core,
                    # which a drift-free service never needs.
                    from ..lifecycle import DriftMonitor, scorer_for

                    scorer = scorer_for(model)
                    if scorer is not None:
                        monitor = DriftMonitor(
                            floor=self.drift_floor,
                            metrics=self.metrics,
                            name=record.spec,
                        )
                served = _ServedModel(
                    record=record,
                    model=model,
                    cache=LRUCache(max_size=self.cache_size),
                    scorer=scorer,
                    monitor=monitor,
                )
                self._models[key] = served
        return served

    def _checked(self, spec: str, X, field: str) -> tuple[_ServedModel, np.ndarray]:
        """Validate request input and resolve ``spec``: the one input check.

        ``field`` names the input — ``"row"`` (one 1-D row) or ``"rows"``
        (a 2-D batch). Coercion and rank are checked before the spec is
        resolved, so malformed input to an unknown model is still reported
        as bad input; the width is then checked against the registered
        schema. Returns the served model and ``X`` as a float64 ``(n, m)``
        matrix. Finiteness is left to the model's own input check.
        """
        ndim = 1 if field == "row" else 2
        try:
            X = np.asarray(X, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{field!r} must be numeric: {exc}") from exc
        if X.ndim != ndim or X.size == 0:
            raise ValidationError(
                f"{field!r} must be {_SHAPES[ndim]}; got shape {X.shape}"
            )
        served = self._served(spec)
        record = served.record
        expected = record.n_features_in
        if expected is not None and X.shape[-1] != expected:
            raise ValidationError(
                f"schema mismatch for {record.spec}: {field!r} has "
                f"{X.shape[-1]} features but the registered "
                f"{record.model_type} expects {expected}"
            )
        return served, X.reshape(-1, X.shape[-1])

    def _serve(self, served: _ServedModel, X: np.ndarray) -> np.ndarray:
        """Serve a validated ``(n, m)`` batch: the one path to the model.

        Cached rows skip the model; unique misses (a row repeated inside
        one request included) are computed once, and those
        :meth:`LRUCache.admit` saw in an earlier request are cached. A
        request whose rows are all computed, each once, returns the
        model's float64 block as it is; any other is joined from row
        bytes, hits and computed rows alike, and decoded once. Only
        computed rows are scored for drift — a hit re-serves a row that
        was already scored, or sampled out, when it was computed.
        """
        start = time.perf_counter()
        with span("serving.transform", model=served.record.spec,
                  rows=X.shape[0]):
            missed = slice(None)  # the computed rows: all, in request order
            if not self.cache_size:
                result = _model_transform(served.model, X)
            else:
                digests = matrix_digests(X)
                cached = served.cache.get_many(digests)
                rows, slot = [], {}  # first index / computed slot per miss
                for index, (digest, hit) in enumerate(zip(digests, cached)):
                    if hit is None and digest not in slot:
                        slot[digest] = len(rows)
                        rows.append(index)
                if len(rows) < X.shape[0]:
                    missed = rows
                entries = []  # each computed row's bytes, in computed order
                if rows:
                    computed = _model_transform(served.model, X[missed])
                    seen = served.cache.admit(slot)
                    store = True in seen
                    if store or len(rows) < X.shape[0]:
                        entries = _row_entries(computed)
                    if store:
                        served.cache.put_many(compress(zip(slot, entries), seen))
                if len(rows) == X.shape[0]:
                    result = computed
                else:
                    # Every row is bytes: one join, one writeable decode.
                    result = np.frombuffer(bytearray().join([
                        entries[slot[digest]] if hit is None else hit
                        for digest, hit in zip(digests, cached)
                    ]), dtype=np.float64).reshape(X.shape[0], -1)
        self._account(served, X.shape[0], time.perf_counter() - start)
        if served.monitor is not None:
            self._observe_drift(served, X[missed], result[missed])
        return result

    def _account(self, served: _ServedModel, rows: int, seconds: float) -> None:
        spec = served.record.spec
        self.metrics.inc("serving.requests", model=spec)
        self.metrics.inc("serving.rows", float(rows), model=spec)
        self.metrics.observe("serving.request_seconds", seconds, model=spec)

    def _observe_drift(self, served: _ServedModel, X, Z) -> None:
        """Fold a stride-sample of computed rows into the drift monitor.

        Never raises: a scoring failure increments
        ``serving.drift_errors`` and the request succeeds regardless —
        drift accounting is observability, not a serving dependency.
        """
        monitor = served.monitor
        n = X.shape[0]
        if n == 0:
            return
        step = max(1, n // self.drift_sample)
        idx = np.arange(0, n, step)[: self.drift_sample]
        try:
            scores = served.scorer(X[idx], Z[idx])
            monitor.observe(scores)
        except Exception:
            self.metrics.inc("serving.drift_errors", model=served.record.spec)

    def drift_status(self) -> dict:
        """Per-model drift snapshots for the warm models.

        ``{"enabled": bool, "models": {spec: DriftMonitor.snapshot()}}``;
        models without landmark coordinates (no scorer) are reported with
        ``None``.
        """
        with self._load_lock:
            served_models = list(self._models.values())
        models = {}
        for served in served_models:
            spec = served.record.spec
            models[spec] = (
                served.monitor.snapshot() if served.monitor is not None else None
            )
        return {"enabled": self.drift, "models": models}
