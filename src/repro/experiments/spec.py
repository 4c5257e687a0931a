"""Declarative run specs: a whole scenario matrix as one document.

A :class:`RunSpec` expresses the paper's experiment grids — datasets ×
methods × γ values × seeds — as data (a dataclass, loadable from YAML or
JSON), and :func:`run_spec` compiles it into a flat cell list. A
γ-sweep is a one-seed spec and a cross-seed repetition a one-γ spec, so
``repro experiments run`` is the CLI's one entry point for both. This
module also holds the one executor of such cells, which
:meth:`ExperimentHarness.run_method`/``run_methods``/``gamma_sweep``/``tune``
and the ``repeat_*`` functions compile onto too, and so do the fitted
models of :meth:`~ExperimentHarness.export_model` and ``figure1``; it is the
only code that reads or writes a ``method_result``, ``tuned_point`` or
experiment ``model`` ledger entry. Every
cell is keyed by its content-addressed task digest in a
:class:`~repro.store.RunLedger`, and completed digests are skipped
*before* dispatch, which buys three properties for free:

* **resume** — re-running the spec after an interruption recomputes only
  the cells the crash lost;
* **incremental extension** — widening the γ grid, adding a seed or a
  method re-pays only the new cells;
* **deduplication** — two specs sharing cells (same dataset content, same
  parameters) share ledger entries.

Aggregates (mean ± std across seeds) are rebuilt from ledger queries, so
an interrupted-and-resumed run is bitwise identical to an uninterrupted
one, serial or parallel.

Example spec (YAML), a three-seed γ-sweep of two methods::

    name: compas-gamma-sweep
    datasets:
      - {name: compas, scale: 0.25}
    methods: [original, pfr]
    gammas: [0.0, 0.5, 1.0]
    seeds: [0, 1, 2]
    harness: {n_components: 3}
    method_params:
      pfr: {C: 1.0}

Run it with ``repro experiments run spec.yaml --store DIR`` or
:func:`run_spec`.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..exceptions import ValidationError
from ..obs.metrics import get_registry
from ..obs.trace import emit_metrics, span, trace_enabled
from ..store import (
    RunLedger,
    coerce_ledger,
    decode_method_result,
    encode_method_result,
    task_digest,
)
from .builders import WorkloadFactory
from .harness import ExperimentHarness, _check_method_params, cell_task
from .parallel import get_executor, spawn_seeds

__all__ = [
    "RunSpec",
    "RunReport",
    "AggregateResult",
    "load_run_spec",
    "run_spec",
    "compile_cells",
    "parse_shard",
    "shard_of",
]

#: Harness constructor knobs a spec may set (the split/graph/representation
#: configuration). ``seed`` is excluded — it comes from the spec's seed
#: axis — and ``store``/``workers`` are runtime arguments, not scenario
#: parameters.
_HARNESS_KEYS = frozenset(
    {
        "test_size",
        "n_quantiles",
        "rating_resolution",
        "n_neighbors",
        "n_components",
        "landmarks",
        "landmark_strategy",
        "method_overrides",
    }
)


def _checked(value, key: str, types, what: str, minimum=None):
    """``value`` if it is a ``types`` instance (never a bool) of at least
    ``minimum``; otherwise a ValidationError naming the spec field."""
    if (
        isinstance(value, bool) or not isinstance(value, types)
        or (minimum is not None and value < minimum)
    ):
        raise ValidationError(
            f"run spec field {key!r} must be {what}; got {value!r}"
        )
    return value


@dataclass(frozen=True)
class RunSpec:
    """One declarative scenario matrix: datasets × methods × γ × seeds.

    Attributes
    ----------
    name:
        Human-readable identifier, recorded in the report.
    datasets:
        Tuple of ``(workload_name, scale)`` pairs.
    methods:
        Harness method names (``pfr``, ``original+``, ...).
    gammas:
        γ grid applied to every method (methods that ignore γ simply key
        their cells on it).
    seeds:
        Explicit seed tuple; each seeds the dataset draw *and* the
        harness split, exactly like :func:`~repro.experiments.repeat_methods`.
    harness:
        Extra :class:`~repro.experiments.ExperimentHarness` constructor
        arguments applied to every cell (validated against the known
        knobs).
    method_params:
        Per-method keyword arguments (may include the classifier ``C``),
        e.g. ``{"pfr": {"C": 10.0}}``.
    """

    name: str
    datasets: tuple
    methods: tuple
    gammas: tuple
    seeds: tuple
    harness: dict = field(default_factory=dict)
    method_params: dict = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        """Total cells in the matrix."""
        return (
            len(self.datasets) * len(self.methods)
            * len(self.gammas) * len(self.seeds)
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Validate and normalize a plain-dict (YAML/JSON) spec.

        The one check on specs from outside the program: a malformed field
        raises a :class:`ValidationError` naming it, before any cell runs.
        """
        if not isinstance(data, dict):
            raise ValidationError(
                f"a run spec must be a mapping; got {type(data).__name__}"
            )
        known = {
            "name", "datasets", "methods", "gammas", "seeds", "harness",
            "method_params",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown run-spec fields {unknown}; known: {sorted(known)}"
            )

        name = str(data.get("name", "run"))

        datasets = []
        raw_datasets = data.get("datasets") or []
        for item in _checked(raw_datasets, "datasets", (list, tuple), "a list"):
            if isinstance(item, str):
                item = {"name": item}
            if not isinstance(item, dict) or "name" not in item:
                raise ValidationError(
                    "each dataset must be a workload name or a "
                    "{name, scale} mapping"
                )
            extra = sorted(set(item) - {"name", "scale"})
            if extra:
                raise ValidationError(
                    f"unknown dataset fields {extra}; known: ['name', 'scale']"
                )
            scale = float(_checked(
                item.get("scale", 1.0), "datasets.scale", numbers.Real, "a number"
            ))
            # WorkloadFactory validates the name (and pins the scale range
            # check to one place).
            WorkloadFactory(str(item["name"]), scale=scale)
            datasets.append((str(item["name"]), scale))
        if not datasets:
            raise ValidationError("run spec needs a non-empty 'datasets' list")
        names = [name for name, _scale in datasets]
        if len(set(names)) != len(names):
            # The report keys results by dataset *name*; two entries for
            # one workload (e.g. two scales) would silently collapse into
            # a single row. Express that as two specs instead.
            raise ValidationError(f"datasets contains duplicates: {names}")

        methods = tuple(
            str(m) for m in _checked(
                data.get("methods") or [], "methods", (list, tuple), "a list"
            )
        )
        if not methods:
            raise ValidationError("run spec needs a non-empty 'methods' list")
        if len(set(methods)) != len(methods):
            raise ValidationError(f"methods contains duplicates: {list(methods)}")
        for method in methods:
            _check_method_params(method, {}, field="methods")

        gammas = tuple(
            float(_checked(g, "gammas", numbers.Real, "a list of numbers"))
            for g in _checked(
                data.get("gammas", (0.5,)), "gammas", (list, tuple), "a list"
            )
        )
        if not gammas:
            raise ValidationError("run spec needs at least one gamma")
        bad = [g for g in gammas if not (math.isfinite(g) and 0.0 <= g <= 1.0)]
        if bad:
            raise ValidationError(f"gammas must be finite and in [0, 1]; got {bad}")
        if len(set(gammas)) != len(gammas):
            raise ValidationError(f"gammas contains duplicates: {list(gammas)}")

        raw_seeds = data.get("seeds", (0,))
        if isinstance(raw_seeds, (list, tuple)):
            seeds = tuple(
                int(_checked(s, "seeds", numbers.Integral,
                             "a list of non-negative integers", minimum=0))
                for s in raw_seeds
            )
        else:
            # A count (root 0) or a {count, root} mapping derives the seeds.
            derive = raw_seeds if isinstance(raw_seeds, dict) else {"count": raw_seeds}
            extra = sorted(set(derive) - {"count", "root"})
            if extra:
                raise ValidationError(
                    f"unknown seeds fields {extra}; known: ['count', 'root']"
                )
            what = "a list, a count or a {count, root} mapping"
            count = _checked(derive.get("count", 0), "seeds", numbers.Integral, what)
            if count < 1:
                raise ValidationError(f"seeds count must be >= 1; got {count}")
            root = _checked(
                derive.get("root", 0), "seeds", numbers.Integral, what, minimum=0
            )
            seeds = spawn_seeds(int(root), int(count))
        if not seeds:
            raise ValidationError("run spec needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValidationError(f"seeds contains duplicates: {list(seeds)}")

        harness = dict(
            _checked(data.get("harness") or {}, "harness", dict, "a mapping")
        )
        bad = sorted(set(harness) - _HARNESS_KEYS)
        if bad:
            raise ValidationError(
                f"unknown harness fields {bad}; known: {sorted(_HARNESS_KEYS)}"
            )
        overrides = _checked(
            harness.get("method_overrides") or {}, "harness.method_overrides",
            dict, "a mapping",
        )
        for method, params in overrides.items():
            # Overrides reach the estimator's constructor, C included.
            _check_method_params(method, _checked(
                params, f"harness.method_overrides[{method!r}]", dict,
                "a mapping",
            ), field="harness.method_overrides", cell=False)

        method_params = {
            str(method): dict(_checked(
                params, f"method_params[{method!r}]", dict, "a mapping"
            ))
            for method, params in _checked(
                data.get("method_params") or {}, "method_params", dict,
                "a mapping",
            ).items()
        }
        for method, params in method_params.items():
            if method not in methods:
                raise ValidationError(
                    f"method_params names {method!r} which is not in methods "
                    f"{list(methods)}"
                )
            # γ is a spec axis, not a per-method parameter; letting it
            # through would explode deep in a worker with a confusing
            # "multiple values for keyword argument" TypeError.
            reserved = sorted({"gamma", "workers", "store"} & set(params))
            if reserved:
                raise ValidationError(
                    f"method_params[{method!r}] may not set {reserved}; "
                    "gamma is the spec's 'gammas' axis and workers/store "
                    "are runtime arguments"
                )
            _check_method_params(method, params)

        return cls(
            name=name,
            datasets=tuple(datasets),
            methods=methods,
            gammas=gammas,
            seeds=seeds,
            harness=harness,
            method_params=method_params,
        )


def load_run_spec(path) -> RunSpec:
    """Load a :class:`RunSpec` from a YAML or JSON file.

    ``.json`` files parse with the stdlib; anything else goes through
    PyYAML when available (YAML is a superset of JSON, so a JSON document
    under a ``.yaml`` name still loads). Without PyYAML, non-JSON files
    fall back to a JSON parse and fail with a clear message.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"run spec not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
        return RunSpec.from_dict(data)
    try:
        import yaml
    except ImportError:  # pragma: no cover - PyYAML is in the base image
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"cannot parse {path}: PyYAML is not installed and the file "
                f"is not valid JSON ({exc})"
            ) from exc
        return RunSpec.from_dict(data)
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"invalid YAML in {path}: {exc}") from exc
    return RunSpec.from_dict(data)


_METRICS = (
    "auc", "consistency_wx", "consistency_wf", "parity_gap", "fpr_gap",
    "fnr_gap",
)


@dataclass(frozen=True)
class AggregateResult:
    """Mean ± std of every scalar metric across seeds."""

    method: str
    dataset: str
    n_runs: int
    mean: dict = field(repr=False)
    std: dict = field(repr=False)

    def format(self, metric: str) -> str:
        """``"0.712 ± 0.013"`` for one metric."""
        if metric not in self.mean:
            raise ValidationError(
                f"unknown metric {metric!r}; available: {sorted(self.mean)}"
            )
        return f"{self.mean[metric]:.3f} ± {self.std[metric]:.3f}"


def _collect(results) -> AggregateResult:
    results = list(results)
    if not results:
        raise ValidationError("cannot aggregate an empty result list")
    rows = [r.summary() for r in results]
    mean = {m: float(np.mean([row[m] for row in rows])) for m in _METRICS}
    # Sample std (ddof=1): the error bars describe seed-to-seed
    # variability estimated from the seeds actually run, the convention of
    # the mean ± std tables in the paper's lineage (population std
    # understates the bars by ~22% at the default 3 seeds). A single run
    # has no spread to estimate — report 0.0, not NaN.
    if len(rows) > 1:
        std = {
            m: float(np.std([row[m] for row in rows], ddof=1)) for m in _METRICS
        }
    else:
        std = {m: 0.0 for m in _METRICS}
    return AggregateResult(
        method=results[0].method,
        dataset=results[0].dataset,
        n_runs=len(results),
        mean=mean,
        std=std,
    )


def _gamma_key(gamma: float) -> str:
    """``:g`` when it renders γ exactly (0, 0.25, 1: the historical keys),
    else the round-trip ``repr``, so distinct γ values never share a key."""
    text = f"{gamma:g}"
    return text if float(text) == gamma else repr(float(gamma))


@dataclass(frozen=True)
class RunReport:
    """What one :func:`run_spec` invocation did, rebuilt from the ledger.

    Attributes
    ----------
    spec:
        The spec that ran.
    cells:
        One dict per cell — ``dataset``, ``scale``, ``seed``, ``method``,
        ``gamma``, ``digest``, and ``cached`` (True when the cell was
        already in the ledger before this run) — in deterministic matrix
        order. A sharded run lists only its shard's cells and adds each
        cell's ``shard`` index.
    results:
        ``{(dataset, method, gamma, seed): MethodResult}`` decoded from
        the ledger.
    aggregates:
        ``{(dataset, method, gamma): AggregateResult}`` across seeds
        (present when the spec has ≥ 2 seeds).
    telemetry:
        Observability sidecar (:mod:`repro.obs`): wall-clock, cell
        counts, and the parent process's ledger hit/miss deltas for this
        run. Purely informational — never part of any digest, and absent
        keys must not be relied on.
    """

    spec: RunSpec
    cells: list
    results: dict = field(repr=False)
    aggregates: dict = field(repr=False)
    telemetry: dict = field(default_factory=dict, repr=False)

    @property
    def n_total(self) -> int:
        return len(self.cells)

    @property
    def n_cached(self) -> int:
        return sum(1 for cell in self.cells if cell["cached"])

    @property
    def n_computed(self) -> int:
        return self.n_total - self.n_cached

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from the ledger (0.0 on an empty spec)."""
        return self.n_cached / self.n_total if self.cells else 0.0

    def to_json(self) -> dict:
        """Machine-readable summary (what ``--json`` prints): the cells,
        each with its result's ``summary()`` metrics, and the aggregates."""
        cells = [
            {**cell, "summary": self.results[
                (cell["dataset"], cell["method"], cell["gamma"], cell["seed"])
            ].summary()}
            for cell in self.cells
        ]
        aggregates = {}
        for (dataset, method, gamma), agg in self.aggregates.items():
            key = f"{dataset}/{method}/gamma={_gamma_key(gamma)}"
            aggregates[key] = {
                "n_runs": agg.n_runs,
                "mean": agg.mean,
                "std": agg.std,
            }
        return {
            "name": self.spec.name,
            "total": self.n_total,
            "cached": self.n_cached,
            "computed": self.n_computed,
            "hit_rate": self.hit_rate,
            "cells": cells,
            "aggregates": aggregates,
            "telemetry": self.telemetry,
        }


# -- deterministic sharding ------------------------------------------------
#
# A sharded run partitions the compiled cell list by a stable hash of each
# cell's *task digest* — never by list position — so the assignment is a
# pure function of the cell's identity: reordering the spec, widening the
# γ grid, or adding seeds/methods/datasets can add cells to a shard but
# can never move an existing cell to a different one. K machines each run
# `run_spec(spec, shard=(i, K))` against their own store; `repro store
# merge` unions the stores; a final un-sharded `run_spec` over the merged
# store finds every cell cached and rebuilds the exact un-sharded report.

def shard_of(digest: str, n_shards: int) -> int:
    """Shard index of a task digest: stable, order-free, uniform.

    Uses the leading 64 bits of the (already cryptographic) digest modulo
    ``n_shards``, so for any K the shards are a disjoint cover of the
    cell set and an existing cell's assignment never changes when the
    grid around it grows.
    """
    if not isinstance(n_shards, int) or n_shards < 1:
        raise ValidationError(
            f"n_shards must be a positive integer; got {n_shards!r}"
        )
    try:
        return int(str(digest)[:16], 16) % n_shards
    except ValueError as exc:
        raise ValidationError(
            f"not a hex task digest: {digest!r}"
        ) from exc


def parse_shard(shard) -> tuple[int, int] | None:
    """Normalize a shard selector to ``(index, count)``.

    Accepts ``None`` (no sharding), an ``(i, K)`` pair, or the CLI's
    ``"i/K"`` string; validates ``0 <= i < K``.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        index_text, sep, count_text = shard.partition("/")
        if not sep:
            raise ValidationError(
                f"shard must look like 'i/K' (e.g. 0/4); got {shard!r}"
            )
        try:
            index, count = int(index_text), int(count_text)
        except ValueError as exc:
            raise ValidationError(
                f"shard must look like 'i/K' with integer i and K; "
                f"got {shard!r}"
            ) from exc
    else:
        try:
            index, count = shard
            index, count = int(index), int(count)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"shard must be None, 'i/K', or an (i, K) pair; got {shard!r}"
            ) from exc
    if count < 1:
        raise ValidationError(f"shard count must be >= 1; got {count}")
    if not 0 <= index < count:
        raise ValidationError(
            f"shard index must be in [0, {count}); got {index}"
        )
    return index, count


def _build_harness(dataset_factory, seed: int, harness_kwargs: dict):
    """A fresh, unprepared harness for one dataset × seed slice."""
    return ExperimentHarness(dataset_factory(seed), seed=seed, **harness_kwargs)


def _compile(spec: RunSpec) -> tuple[list, list, list]:
    """The spec's slices, cells and report rows, in matrix order.

    Slices are picklable zero-argument harness builders, one per
    dataset × seed, so workers rebuild the datasets they run instead of
    receiving them. Each slice is materialized here once, only to
    fingerprint it, so memory peaks at one dataset.
    """
    slices, fingerprints, index = [], [], {}
    for dataset_name, scale in spec.datasets:
        factory = WorkloadFactory(dataset_name, scale=scale)
        for seed in spec.seeds:
            index[(dataset_name, seed)] = len(slices)
            slices.append(
                functools.partial(_build_harness, factory, seed, spec.harness)
            )
            fingerprints.append(slices[-1]().task_fingerprint())

    cells, rows = [], []
    for dataset_name, scale in spec.datasets:
        for method in spec.methods:
            params = dict(spec.method_params.get(method, {}))
            C = float(params.pop("C", 1.0))
            for gamma in spec.gammas:
                for seed in spec.seeds:
                    i = index[(dataset_name, seed)]
                    cell = _cell(i, method, gamma, C, params, cell_task(
                        fingerprints[i], method, gamma, C, params
                    ))
                    cells.append(cell)
                    rows.append(dict(
                        dataset=dataset_name, scale=scale, seed=seed,
                        method=method, gamma=gamma, digest=cell.digest,
                        cached=False,
                    ))
    return slices, cells, rows


def compile_cells(spec: RunSpec, *, ledger: RunLedger | None = None) -> list:
    """The spec's flat cell list, in deterministic matrix order.

    Each cell is a dict of ``dataset``/``scale``/``seed``/``method``/
    ``gamma``/``digest``/``cached`` (``cached`` is False when no ledger is
    given). This is the compilation step :func:`run_spec` executes and the
    sharding layer partitions — the digests here are what
    :func:`shard_of` hashes, so tests can assert cover/disjointness/
    stability without running anything.
    """
    _slices, _cells, rows = _compile(spec)
    if ledger is not None:
        for row in rows:
            row["cached"] = ledger.contains(row["digest"])
    return rows


# -- the one experiment-cell executor ----------------------------------------
#
# run_spec, ExperimentHarness.run_method/run_methods/gamma_sweep/tune/
# export_model and repeat_* (and so the figure drivers) all compile to cells
# and run them through `_execute`, the only code that reads or writes a
# method_result, tuned_point or experiment model ledger entry. There is no
# other path: a tune grid point is a cell too, scored over CV folds instead
# of on the test split, and so is a fitted model, persisted as a blob.


def _model_entry(cell, model) -> tuple:
    """A ``model`` cell's ledger payload, and the estimator as its blob."""
    digests = getattr(model, "plan_digests_", None)
    return {
        "model_type": type(model).__name__,
        "method": cell.method,
        "gamma": float(cell.gamma),
        "stage_digests": (
            {str(k): str(v) for k, v in digests.items()}
            if isinstance(digests, dict) else {}
        ),
    }, model


class _Kind(NamedTuple):
    """One cell kind: ``run(harness, cell)`` computes the result,
    ``encode(cell, result)`` gives its ledger ``(payload, model blob)``, and
    ``decode(entry)`` reads the result back from its ledger entry."""

    run: object
    encode: object
    decode: object


_KINDS = {
    "method_result": _Kind(
        lambda harness, cell: harness._run_method_direct(
            cell.method, gamma=cell.gamma, C=cell.C, method_params=cell.params
        ),
        lambda cell, result: (encode_method_result(result), None),
        lambda entry: decode_method_result(entry.payload),
    ),
    # Scored by cross-validation on the training split, over cell.cv.
    "tuned_point": _Kind(
        lambda harness, cell: harness._score_grid_point_direct(
            cell.method, gamma=cell.gamma, C=cell.C, method_params=cell.params,
            cv=cell.cv,
        ),
        lambda cell, score: ({"mean_score": score}, None),
        lambda entry: float(entry.payload["mean_score"]),
    ),
    # The base estimator fitted on the training split; read back as its
    # LedgerEntry, whose blob RunLedger.load_model deserializes.
    "model": _Kind(
        lambda harness, cell: harness._fit_base_estimator(
            cell.method, harness._split_rows(harness.X_train),
            gamma=cell.gamma, method_params=cell.params,
        ),
        _model_entry,
        lambda entry: entry,
    ),
}


class _Cell(NamedTuple):
    """One cell of result ``kind`` (a :data:`_KINDS` key): a (method, γ, C,
    params) call on the slice at ``index``, with its ledger task and that
    task's digest (both None without a ledger). A ``tuned_point`` cell
    carries its ``cv`` = (n_splits, scoring)."""

    index: int
    method: str
    gamma: float
    C: float
    params: dict
    task: dict | None
    digest: str | None
    kind: str
    cv: tuple | None


def _cell(
    index, method, gamma, C, params, task=None, *, kind="method_result",
    cv=None,
) -> _Cell:
    """Check the method params and build a cell keyed by ``task`` (None
    when there is no ledger to key, so a ledger-free run never hashes
    data)."""
    _check_method_params(method, params)
    digest = None if task is None else task_digest(task)
    return _Cell(index, method, gamma, C, params, task, digest, kind, cv)


def _task_groups(cells: list, pending: list, executor) -> list:
    """Pending cell indices grouped into dispatch tasks.

    Each slice's pending cells, in order, form one task; with fewer
    slices than the executor's worker count W, each slice is split into
    at most ⌈W / n_slices⌉ contiguous parts. A slice is therefore built,
    prepared and plan-built at most once per worker that runs it.
    """
    by_slice = {}
    for i in pending:
        by_slice.setdefault(cells[i].index, []).append(i)
    parts = -(-executor.resolve_workers() // len(by_slice)) if by_slice else 1
    groups = []
    for members in by_slice.values():
        n = min(parts, len(members))
        groups += [
            members[k * len(members) // n:(k + 1) * len(members) // n]
            for k in range(n)
        ]
    return groups


def _cells_task(state, task):
    """Run one slice's share of cells, in order (the executor's task).

    With a ledger each result is persisted the moment it completes (so a
    killed run loses at most the cell in flight) and ``None`` comes back
    in its place: :func:`_execute` reads every cell back from the ledger.
    """
    index, cells = task
    harness = state["slices"][index]
    if not isinstance(harness, ExperimentHarness):
        # Parts of one slice are contiguous in task order, so one built
        # slice per worker suffices; drop the previous one first.
        if state.get("built", (None,))[0] != index:
            state["built"] = None
            state["built"] = (index, harness())
        harness = state["built"][1]
    harness.prepare()
    ledger = state["ledger"]
    results = []
    for cell in cells:
        attrs = {
            "dataset": harness.dataset.name, "method": cell.method,
            "gamma": float(cell.gamma), "seed": int(harness.seed),
            "cached": False, "worker": os.getpid(),
        }
        if cell.digest is not None:
            attrs["digest"] = cell.digest
        if state["shard"] is not None:
            # Shard-labeled spans: a merged multi-machine trace stays
            # attributable to the shard that computed each cell.
            attrs["shard"] = state["shard"]
        with span("spec.cell", **attrs):
            kind = _KINDS[cell.kind]
            result = kind.run(harness, cell)
            if ledger is not None:
                payload, model = kind.encode(cell, result)
                ledger.put(cell.task, payload, model=model)
                result = None
        results.append(result)
    return results


def _execute(
    slices: list, cells: list, *, ledger, workers=None, shard=None,
    run_span=None,
) -> tuple[list, list]:
    """Skip → dispatch → read back; returns ``(results, cached)`` in cell order.

    With a ledger, cells whose digest is on disk are skipped before
    dispatch, workers put the rest, and every cell is read back from the
    ledger — so cold, warm, resumed, serial and parallel runs return the
    same decoded objects. Without one, the executor's own results come
    back. ``run_span``, if given, receives the ``total``/``cached``/
    ``computed`` counts once known.
    """
    cached = [ledger is not None and ledger.contains(c.digest) for c in cells]
    pending = [i for i, hit in enumerate(cached) if not hit]
    if run_span is not None:
        run_span.set(total=len(cells), cached=len(cells) - len(pending),
                     computed=len(pending))
    executor = get_executor(workers)
    groups = _task_groups(cells, pending, executor)
    outputs = executor.map(
        _cells_task,
        [(cells[group[0]].index, [cells[i] for i in group]) for group in groups],
        state={"slices": slices, "shard": shard, "ledger": ledger},
    )
    if ledger is None:
        computed = dict(zip(chain(*groups), chain(*outputs)))
        return [computed[i] for i in range(len(cells))], cached
    results = []
    for cell in cells:
        entry = ledger.get(cell.digest)
        if entry is None:
            # Only external interference (a concurrent `repro store gc`,
            # manual deletion, a worker dying before its write) gets here.
            raise ValidationError(
                f"cell {cell.method}/gamma={cell.gamma:g} "
                f"({cell.digest[:12]}…) is missing from the ledger at "
                f"{ledger.root} after execution; re-run to recompute the "
                "missing cells"
            )
        results.append(_KINDS[cell.kind].decode(entry))
    return results, cached


def _run_calls(slices, methods, gammas, kwargs, *, ledger, workers) -> list:
    """Run methods × γ with the same ``kwargs`` on every slice (the
    compiler behind ``run_methods``/``gamma_sweep`` and ``repeat_*``);
    results are slice-major. Slices are fingerprinted only for a ledger."""
    params = dict(kwargs)
    C = params.pop("C", 1.0)
    cells = []
    for index, harness in enumerate(slices):
        fingerprint = None
        if ledger is not None:
            if not isinstance(harness, ExperimentHarness):
                harness = harness()
            fingerprint = harness.task_fingerprint()
        cells += [
            _cell(index, method, gamma, C, params, None if fingerprint is None
                  else cell_task(fingerprint, method, gamma, C, params))
            for method in methods for gamma in gammas
        ]
    return _execute(slices, cells, ledger=ledger, workers=workers)[0]


def run_spec(spec: RunSpec, *, store, workers=None, shard=None) -> RunReport:
    """Execute a :class:`RunSpec` (or one shard of it) through a run ledger.

    Compiles the matrix to cells and hands them to the one cell executor
    shared with :meth:`ExperimentHarness.run_methods`/``gamma_sweep`` and
    the ``repeat_*`` functions: digests already in the ledger are skipped,
    the missing cells are dispatched slice by slice (workers rebuild each
    dataset × seed slice's harness from its workload factory, so no
    dataset is shipped, and reuse it for every cell of the slice they
    run), and results and aggregates are rebuilt from ledger queries.
    Serial and parallel runs — and interrupted-then-resumed runs — are
    bitwise identical.

    Parameters
    ----------
    spec:
        The scenario matrix (see :class:`RunSpec` / :func:`load_run_spec`).
    store:
        Ledger directory or :class:`~repro.store.RunLedger` (required —
        the ledger is what makes the spec resumable).
    workers:
        Process fan-out for the missing cells (``None`` = serial).
    shard:
        ``None`` (the whole matrix), or ``"i/K"`` / ``(i, K)`` to run only
        the cells :func:`shard_of` assigns to shard *i* of *K*. The
        partition is keyed on each cell's task digest, so it is disjoint,
        covering, independent of cell order, and stable under grid
        widening. K shards each with N workers compose: every shard runs
        its own executor against its own store, and ``repro store merge``
        unions the stores afterwards. A sharded report covers only this
        shard's cells; aggregates are built only for (dataset, method, γ)
        groups whose every seed landed in this shard, so no partial
        cross-seed statistics ever leave a shard — re-run the merged
        store un-sharded to rebuild the full (bitwise-identical) report.
    """
    ledger = coerce_ledger(store)
    if not isinstance(ledger, RunLedger):
        raise ValidationError(
            "run_spec requires a store (a ledger directory path or a "
            f"RunLedger); got {store!r}"
        )
    shard = parse_shard(shard)
    shard_label = None if shard is None else f"{shard[0]}/{shard[1]}"

    start = time.perf_counter()
    stats_before = ledger.stats()
    span_attrs = {"name": spec.name}
    if shard_label is not None:
        span_attrs["shard"] = shard_label
    with span("spec.run", **span_attrs) as run_span:
        slices, cells, rows = _compile(spec)
        if shard is not None:
            for row in rows:
                row["shard"] = shard_of(row["digest"], shard[1])
            keep = [i for i, row in enumerate(rows) if row["shard"] == shard[0]]
            cells = [cells[i] for i in keep]
            rows = [rows[i] for i in keep]
        results, cached = _execute(
            slices, cells, ledger=ledger, workers=workers, shard=shard_label,
            run_span=run_span,
        )
        for row, hit in zip(rows, cached):
            row["cached"] = hit
        results = {
            (row["dataset"], row["method"], row["gamma"], row["seed"]): result
            for row, result in zip(rows, results)
        }
        # A (dataset, method, γ) group aggregates only when every seed is
        # present: a shard holding some of a group's seeds must not publish
        # a partial mean/std — those cells aggregate after the merge.
        groups = {
            (dataset, method, gamma): [
                results.get((dataset, method, gamma, seed))
                for seed in spec.seeds
            ]
            for dataset, _scale in spec.datasets
            for method in spec.methods
            for gamma in spec.gammas
        }
        aggregates = {
            key: _collect(group) for key, group in groups.items()
            if len(spec.seeds) > 1 and None not in group
        }

        stats_after = ledger.stats()
        delta = {
            key: stats_after[key] - stats_before[key]
            for key in ("hits", "misses", "lookups", "gets", "puts")
        }
        delta["hit_rate"] = (
            delta["hits"] / delta["lookups"] if delta["lookups"] else 0.0
        )
        n_cached = sum(cached)
        telemetry = {
            "wall_s": time.perf_counter() - start,
            "cells": {"total": len(rows), "cached": n_cached,
                      "computed": len(rows) - n_cached},
            "ledger": delta,
            "trace_enabled": trace_enabled(),
        }
        if shard_label is not None:
            telemetry["shard"] = shard_label
            # Shard-labeled metrics: a fleet scraping one registry can
            # tell the shards' progress apart.
            registry = get_registry()
            registry.inc("spec.shard.cells", len(rows),
                         name=spec.name, shard=shard_label)
            registry.inc("spec.shard.computed", len(rows) - n_cached,
                         name=spec.name, shard=shard_label)
    # A self-contained trace: snapshot the parent's counters so `repro
    # obs summary` can report the ledger hit rate without the registry.
    emit_metrics()
    return RunReport(
        spec=spec, cells=rows, results=results, aggregates=aggregates,
        telemetry=telemetry,
    )
