"""Versioned on-disk model registry.

The registry turns fitted estimators into *servable artifacts*: each
``register`` call persists the model through the pickle-free
:mod:`repro.io` layer and records a manifest entry carrying everything a
serving tier needs to admit or reject traffic without loading the model —
estimator class, hyper-parameters, the library ``__version__`` that wrote
it, the input schema (feature count plus protected/excluded columns), and —
for PFR-family models fitted through :class:`repro.core.SpectralFitPlan` —
the fit plan's stage digests, an auditable fingerprint of the graphs,
rescale mode and solver configuration that produced the representation.

Layout (one directory per model name)::

    <root>/
        <name>/
            manifest.json      # versions, metadata, "latest" pointer
            v0001.npz          # artifact written by repro.io.save_model
            v0002.npz

Versions are monotonically increasing integers. ``name@latest`` (or a bare
``name``) resolves through the "latest" pointer, which ``promote`` can
rewind to any existing version — the standard rollback story. Manifest
writes are atomic (tempfile + ``os.replace``) and in-process access is
serialized by a lock, so a registry instance can be shared across the
service's threads.
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:  # POSIX advisory locks guard cross-process writes; absent on Windows.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from .._version import __version__
from ..exceptions import ModelNotFoundError, NotFittedError, ValidationError
from ..io import _jsonable_params, atomic_write, load_model, save_model

__all__ = ["ModelRecord", "ModelRegistry"]

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class ModelRecord:
    """One registered model version, as described by the manifest."""

    name: str
    version: int
    model_type: str
    library_version: str
    n_features_in: int | None
    excluded_columns: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    # Stage digests of the SpectralFitPlan that produced the model (PFR
    # family): graph/laplacian/projection/solve SHA-256 fingerprints — for
    # landmark-Nyström fits additionally a "landmarks" digest covering the
    # selection — so the provenance of a servable artifact — graph
    # parameters, rescale mode, solver configuration, training inputs — is
    # auditable without loading it. Empty for estimators fitted outside
    # the plan pipeline.
    stage_digests: dict = field(default_factory=dict)
    # Landmark count of a nystrom-extension fit (None for exact fits):
    # tells a serving tier the model transforms *arbitrary* unseen rows
    # from an m-landmark solve without loading the artifact.
    landmarks: int | None = None
    created_at: float = 0.0
    path: str = ""
    is_latest: bool = False

    @property
    def spec(self) -> str:
        """The ``name@version`` string that resolves back to this record."""
        return f"{self.name}@{self.version}"

    def to_manifest_entry(self) -> dict:
        return {
            "model_type": self.model_type,
            "library_version": self.library_version,
            "n_features_in": self.n_features_in,
            "excluded_columns": list(self.excluded_columns),
            "params": self.params,
            "stage_digests": dict(self.stage_digests),
            "landmarks": self.landmarks,
            "created_at": self.created_at,
            "file": Path(self.path).name,
        }


def _stage_digests(model) -> dict:
    """Fit-plan provenance digests of a PFR-family estimator, if present.

    Estimators fitted through :class:`repro.core.SpectralFitPlan` carry a
    ``plan_digests_`` attribute (graph/laplacian/projection/solve SHA-256
    fingerprints). Anything else — baselines, models loaded from older
    artifacts — yields an empty dict.
    """
    digests = getattr(model, "plan_digests_", None)
    if not isinstance(digests, dict):
        return {}
    return {str(stage): str(value) for stage, value in digests.items()}


def _landmark_count(model) -> int | None:
    """Landmark count of a nystrom-extension fit, ``None`` for exact fits."""
    indices = getattr(model, "landmark_indices_", None)
    if indices is None:
        return None
    return int(np.asarray(indices).shape[0])


def _input_schema(model) -> tuple[int | None, list]:
    """Extract (n_features, excluded columns) from a fitted estimator.

    Transformers expose their fitted input width through the
    ``input_dim`` property (:class:`repro.ml.base.TransformerMixin`);
    other estimators fall back to the ``n_features_in_`` convention.
    Protected/excluded columns live under estimator-specific
    hyper-parameter names. Estimators without either (e.g.
    post-processors) yield ``None`` and an empty list — the service then
    skips the width check.
    """
    try:
        n_features = int(model.input_dim)
    except (AttributeError, NotFittedError):
        n_features = getattr(model, "n_features_in_", None)
        if n_features is not None:
            n_features = int(n_features)
    excluded = []
    for attr in ("exclude_columns", "protected_columns"):
        value = getattr(model, attr, None)
        if value is not None:
            excluded = [int(column) for column in list(value)]
            break
    return n_features, excluded


class ModelRegistry:
    """Register, resolve and load versioned model artifacts under ``root``.

    Parameters
    ----------
    root:
        Directory holding the registry; created on first ``register``.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._lock = threading.Lock()
        # name -> (manifest inode, mtime_ns, size, latest version): lets the
        # hot-path "latest" resolution stat the manifest instead of
        # re-parsing it.
        self._latest_cache: dict[str, tuple[int, int, int, int]] = {}

    @staticmethod
    @contextlib.contextmanager
    def _dir_lock(model_dir: Path):
        """Exclusive cross-process lock on one model's directory.

        Two `repro models register` processes may race: both would read the
        same manifest, pick the same next version, and the loser's artifact
        would be silently overwritten. An advisory flock on a lock file
        serializes writers. No-op where fcntl is unavailable (in-process
        threading.Lock still applies).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(model_dir / ".lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ---------------------------------------------------------- write API
    def register(self, name: str, model, *, promote: bool = True) -> ModelRecord:
        """Persist a fitted ``model`` as the next version of ``name``.

        Returns the new :class:`ModelRecord`. With ``promote=True`` (the
        default) the new version also becomes ``latest``; with
        ``promote=False`` the ``latest`` pointer never moves — on a brand
        new name the version then stays unpromoted (``name@latest`` will
        not resolve until :meth:`promote` is called), which is the canary
        workflow the flag exists for.
        """
        self._check_name(name)
        with self._lock:
            model_dir = self.root / name
            model_dir.mkdir(parents=True, exist_ok=True)
            with self._dir_lock(model_dir):
                manifest = self._read_manifest(model_dir)
                version = 1 + max(
                    (int(v) for v in manifest["versions"]), default=0
                )

                artifact = save_model(model, model_dir / f"v{version:04d}")
                n_features, excluded = _input_schema(model)
                record = ModelRecord(
                    name=name,
                    version=version,
                    model_type=type(model).__name__,
                    library_version=__version__,
                    n_features_in=n_features,
                    excluded_columns=excluded,
                    params=_jsonable(model.get_params()),
                    stage_digests=_stage_digests(model),
                    landmarks=_landmark_count(model),
                    created_at=time.time(),
                    path=str(artifact),
                    is_latest=promote,
                )
                manifest["versions"][str(version)] = record.to_manifest_entry()
                if promote:
                    manifest["latest"] = version
                self._write_manifest(model_dir, manifest)
            return record

    def register_from_ledger(
        self, ledger, digest: str, name: str, *, promote: bool = True
    ) -> ModelRecord:
        """Promote a run-ledger model entry straight into serving.

        ``ledger`` is a :class:`~repro.store.RunLedger` (or a store root
        path) and ``digest`` a ledger entry written with a model blob —
        e.g. by :meth:`repro.experiments.ExperimentHarness.export_model`.
        The blob is deserialized through :mod:`repro.io` and registered as
        the next version of ``name``; the resulting manifest carries the
        fit plan's stage digests exactly as a hand-registered artifact
        would, so experiment → serving promotion is this one call.
        """
        from ..store import coerce_ledger

        ledger = coerce_ledger(ledger)
        if ledger is None:
            raise ValidationError(
                "register_from_ledger needs a run ledger (directory or "
                "RunLedger)"
            )
        model = ledger.load_model(digest)
        return self.register(name, model, promote=promote)

    def promote(self, name: str, version: int) -> ModelRecord:
        """Point ``name@latest`` at an existing ``version`` (e.g. rollback)."""
        with self._lock:
            model_dir = self._existing_dir(name)
            with self._dir_lock(model_dir):
                manifest = self._read_manifest(model_dir)
                if str(version) not in manifest["versions"]:
                    raise ModelNotFoundError(
                        f"model {name!r} has no version {version}; available: "
                        f"{sorted(int(v) for v in manifest['versions'])}"
                    )
                manifest["latest"] = int(version)
                self._write_manifest(model_dir, manifest)
        return self.record(name, version)

    # ----------------------------------------------------------- read API
    def resolve(self, spec: str) -> tuple[str, int]:
        """Parse ``name``, ``name@latest`` or ``name@<version>`` into (name, version)."""
        name, _, selector = str(spec).partition("@")
        self._check_name(name)
        with self._lock:
            model_dir = self._existing_dir(name)
            if selector in ("", "latest"):
                # Latest-resolution is on the serving hot path; a stat is
                # far cheaper than re-parsing the manifest. st_ino is the
                # load-bearing part of the fingerprint: every manifest
                # write goes through os.replace of a fresh temp file (new
                # inode), whereas mtime can tie under coarse clocks and
                # size is unchanged when only the 'latest' digit flips.
                stat = (model_dir / _MANIFEST).stat()
                fingerprint = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
                cached = self._latest_cache.get(name)
                if cached is None or cached[:3] != fingerprint:
                    manifest = self._read_manifest(model_dir)
                    latest = manifest["latest"]
                    self._latest_cache[name] = (*fingerprint, latest)
                else:
                    latest = cached[3]
                if latest is None:
                    raise ModelNotFoundError(
                        f"model {name!r} has no promoted version; "
                        "promote one with `repro models promote`"
                    )
                return name, int(latest)
            manifest = self._read_manifest(model_dir)
            try:
                version = int(selector)
            except ValueError:
                raise ValidationError(
                    f"bad version selector {selector!r} in {spec!r}; "
                    "use <name>, <name>@latest or <name>@<integer>"
                ) from None
            if str(version) not in manifest["versions"]:
                raise ModelNotFoundError(
                    f"model {name!r} has no version {version}; "
                    f"available: {sorted(int(v) for v in manifest['versions'])}"
                )
            return name, version

    def record(self, name: str, version: int | None = None) -> ModelRecord:
        """The :class:`ModelRecord` for ``name`` (``latest`` when version is None)."""
        if version is None:
            name, version = self.resolve(name)
        with self._lock:
            model_dir = self._existing_dir(name)
            manifest = self._read_manifest(model_dir)
            entry = manifest["versions"].get(str(version))
            if entry is None:
                raise ModelNotFoundError(f"model {name!r} has no version {version}")
            return self._entry_to_record(name, version, entry, manifest)

    def load(self, spec: str):
        """Resolve ``spec`` and deserialize the fitted estimator."""
        name, version = self.resolve(spec)
        record = self.record(name, version)
        return load_model(record.path)

    def list_models(self) -> list[ModelRecord]:
        """The latest record of every registered name, sorted by name."""
        if not self.root.is_dir():
            return []
        records = []
        for model_dir in sorted(self.root.iterdir()):
            if not (model_dir / _MANIFEST).is_file():
                continue
            with self._lock:
                manifest = self._read_manifest(model_dir)
            # Unpromoted-only names (canary registrations) still show up,
            # represented by their highest version.
            shown = manifest["latest"]
            if shown is None:
                if not manifest["versions"]:
                    continue
                shown = max(int(v) for v in manifest["versions"])
            entry = manifest["versions"][str(shown)]
            records.append(
                self._entry_to_record(model_dir.name, int(shown), entry, manifest)
            )
        return records

    def versions(self, name: str) -> list[ModelRecord]:
        """Every registered version of ``name``, ascending."""
        with self._lock:
            model_dir = self._existing_dir(name)
            manifest = self._read_manifest(model_dir)
        return [
            self._entry_to_record(name, int(v), entry, manifest)
            for v, entry in sorted(
                manifest["versions"].items(), key=lambda item: int(item[0])
            )
        ]

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_PATTERN.match(name or ""):
            raise ValidationError(
                f"bad model name {name!r}; use letters, digits, '.', '_', '-' "
                "(no '@' — it separates the version selector)"
            )

    def _existing_dir(self, name: str) -> Path:
        # May be called with self._lock held — must not re-acquire it.
        self._check_name(name)
        model_dir = self.root / name
        if not (model_dir / _MANIFEST).is_file():
            known = sorted(
                d.name for d in self.root.iterdir()
                if (d / _MANIFEST).is_file()
            ) if self.root.is_dir() else []
            raise ModelNotFoundError(
                f"unknown model {name!r}; registered models: {known or 'none'}"
            )
        return model_dir

    def _entry_to_record(
        self, name: str, version: int, entry: dict, manifest: dict
    ) -> ModelRecord:
        return ModelRecord(
            name=name,
            version=version,
            model_type=entry["model_type"],
            library_version=entry["library_version"],
            n_features_in=entry["n_features_in"],
            excluded_columns=list(entry.get("excluded_columns", [])),
            params=dict(entry.get("params", {})),
            stage_digests=dict(entry.get("stage_digests", {})),
            landmarks=entry.get("landmarks"),
            created_at=float(entry.get("created_at", 0.0)),
            path=str(self.root / name / entry["file"]),
            is_latest=manifest["latest"] == version,
        )

    @staticmethod
    def _read_manifest(model_dir: Path) -> dict:
        path = model_dir / _MANIFEST
        if not path.is_file():
            return {"latest": None, "versions": {}}
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"corrupt registry manifest {path}: {exc}") from exc
        manifest.setdefault("latest", None)
        manifest.setdefault("versions", {})
        return manifest

    @staticmethod
    def _write_manifest(model_dir: Path, manifest: dict) -> None:
        # Atomic replace so a concurrent reader never sees a torn manifest.
        def write(handle):
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

        atomic_write(model_dir / _MANIFEST, write, mode="w")


def _jsonable(params: dict) -> dict:
    """Best-effort JSON view of hyper-parameters for the manifest.

    Delegates to the io layer's lossless conversion (ndarray -> list,
    numpy scalars -> python scalars) per key; only values that layer
    cannot serialize fall back to ``repr`` — registration must not fail
    over an exotic hyper-parameter.
    """
    out = {}
    for key, value in params.items():
        if isinstance(value, np.ndarray) and value.size > 64:
            # Manifests describe artifacts cheaply; training-set-sized
            # params (e.g. side_information) live in the artifact itself.
            out[key] = f"<array shape={value.shape}>"
            continue
        try:
            out.update(_jsonable_params({key: value}))
        except ValidationError:
            out[key] = repr(value)
    return out
