"""Model persistence without pickle.

A deployed PFR system needs to ship two artifacts: the fitted
representation map and the downstream classifier. This module serializes
both to a single ``.npz`` file — plain numpy arrays plus a JSON header —
so saved models are portable, inspectable, and safe to load (no arbitrary
code execution, unlike pickle).

Every fitted estimator exported from :mod:`repro` is supported: the core
transformers (:class:`~repro.core.PFR`, :class:`~repro.core.KernelPFR`),
every baseline (:class:`~repro.baselines.IFair`,
:class:`~repro.baselines.LFR`, :class:`~repro.baselines.MaskedRepresentation`,
:class:`~repro.baselines.SideInformationAugmenter`,
:class:`~repro.baselines.EqualizedOddsPostProcessor`) and the ml substrate
(:class:`~repro.ml.LogisticRegression`, :class:`~repro.ml.StandardScaler`).

Artifacts are stamped with the library ``__version__`` at save time and the
stamp is verified at load time: a file written by a different *major*
version raises :class:`~repro.exceptions.ValidationError` instead of
silently deserializing state whose meaning may have changed. The serving
model registry (:mod:`repro.serving.registry`) builds on this guarantee.
"""

from __future__ import annotations

import importlib
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from ._validation import check_is_fitted
from ._version import __version__
from .exceptions import ValidationError

__all__ = ["save_model", "load_model", "read_header"]


#: The process umask, read once: os.umask can only read it by setting it,
#: which would race file creation on every other thread at each write.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path, write, *, mode: str = "wb") -> None:
    """Crash-safe file write: temp file in the target directory + rename.

    ``write(handle)`` receives the open temp-file handle; on success the
    temp file is atomically renamed over ``path`` (same-filesystem rename,
    atomic on POSIX), so a process killed at any point leaves either the
    previous file or no file — never a truncated one. Neither the temp
    file nor the directory is fsynced, so that promise does not cover an
    OS crash or power loss, which may still lose or truncate the write (the
    test suite cannot simulate power loss; it kills processes only). The
    single implementation behind every durable artifact in the library:
    model archives (here),
    registry manifests (:mod:`repro.serving.registry`), and run-ledger
    entries (:mod:`repro.store.ledger`).
    """
    path = Path(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        # mkstemp creates 0600 files; the rename preserves that, which
        # would make shared ledgers/registries owner-only. Widen to the
        # umask-honoring default a plain open() would have produced.
        os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, mode) as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise

# Format 2 == format 1 plus the mandatory ``library_version`` stamp.
_FORMAT_VERSION = 2
_READABLE_FORMATS = (1, 2)


def _pack_equalized_odds(model) -> dict:
    """Flatten the per-group mixing dict into parallel arrays."""
    groups = np.asarray(model.groups_)
    table = np.array(
        [model.mix_probabilities_[group] for group in model.groups_],
        dtype=np.float64,
    )
    return {
        "groups_": groups,
        "mix_table": table,
        "expected_error_": np.asarray(model.expected_error_),
    }


def _unpack_equalized_odds(model, arrays: dict) -> None:
    groups = arrays["groups_"]
    table = arrays["mix_table"]
    model.groups_ = groups
    model.mix_probabilities_ = {
        group: (float(row[0]), float(row[1])) for group, row in zip(groups, table)
    }
    model.expected_error_ = float(arrays["expected_error_"])


def _pack_plan_digests(model) -> dict:
    """Persist the fit plan's provenance digests (PFR family) as JSON bytes.

    Keeps ``register(load_model(...))`` provenance-complete: the serving
    registry records these digests in its manifests.
    """
    digests = getattr(model, "plan_digests_", None)
    if not isinstance(digests, dict):
        return {}
    payload = json.dumps({str(k): str(v) for k, v in digests.items()})
    return {"plan_digests_json": np.frombuffer(payload.encode("utf-8"),
                                               dtype=np.uint8)}


def _unpack_plan_digests(model, arrays: dict) -> None:
    blob = arrays.get("plan_digests_json")
    if blob is not None:  # absent on artifacts from older library versions
        model.plan_digests_ = json.loads(bytes(bytearray(blob)).decode("utf-8"))


# model type name -> (module defining the class, fitted attributes persisted
# as arrays). load_model imports the module on first use, so reading a
# KernelPFR loads the core and none of the baselines.
_REGISTRY = {
    "PFR": (
        ".core.pfr",
        (
            "components_",
            "eigenvalues_",
            "n_features_in_",
            "landmark_indices_",
            "landmark_X_",
        ),
    ),
    "KernelPFR": (
        ".core.kernel_pfr",
        (
            "alphas_",
            "eigenvalues_",
            "X_fit_",
            "n_features_in_",
            "_fitted_bandwidth",
            "landmark_indices_",
        ),
    ),
    "LogisticRegression": (
        ".ml.linear",
        ("coef_", "intercept_", "classes_", "n_iter_"),
    ),
    "StandardScaler": (
        ".ml.preprocessing",
        ("mean_", "scale_", "n_features_in_"),
    ),
    "IFair": (
        ".baselines.ifair",
        ("prototypes_", "feature_weights_", "loss_", "n_iter_", "n_features_in_"),
    ),
    "LFR": (
        ".baselines.lfr",
        ("prototypes_", "label_weights_", "loss_", "n_iter_", "n_features_in_"),
    ),
    "MaskedRepresentation": (
        ".baselines.original",
        ("keep_columns_", "n_features_in_"),
    ),
    "SideInformationAugmenter": (
        ".baselines.augment",
        (
            "means_",
            "n_features_in_",
            "n_side_columns_",
            "_train_side",
            "_train_rows",
        ),
    ),
    "EqualizedOddsPostProcessor": (".baselines.hardt", ()),
}

_CHECK_ATTRIBUTE = {
    "PFR": "components_",
    "KernelPFR": "alphas_",
    "LogisticRegression": "coef_",
    "StandardScaler": "mean_",
    "IFair": "prototypes_",
    "LFR": "prototypes_",
    "MaskedRepresentation": "keep_columns_",
    "SideInformationAugmenter": "means_",
    "EqualizedOddsPostProcessor": "mix_probabilities_",
}

# Estimators whose fitted state does not fit the flat-attribute scheme
# (e.g. dict-valued attributes) provide explicit pack/unpack hooks.
_PACK_HOOKS = {
    "EqualizedOddsPostProcessor": _pack_equalized_odds,
    "PFR": _pack_plan_digests,
    "KernelPFR": _pack_plan_digests,
}
_UNPACK_HOOKS = {
    "EqualizedOddsPostProcessor": _unpack_equalized_odds,
    "PFR": _unpack_plan_digests,
    "KernelPFR": _unpack_plan_digests,
}

# Hyper-parameters that hold whole arrays (potentially training-set sized)
# are persisted as npz arrays rather than inlined into the JSON header,
# keeping read_header() cheap regardless of training-set size.
_ARRAY_PARAMS = {"SideInformationAugmenter": ("side_information",)}

# Fitted attributes that may be absent from an archive because they were
# introduced after it was written (same-major artifacts stay loadable; the
# attribute just stays unset). Every other registered attribute is
# required — a missing one means the file is malformed.
_OPTIONAL_ATTRS = frozenset({"landmark_indices_", "landmark_X_"})


def save_model(model, path) -> Path:
    """Serialize a fitted estimator to ``path`` (.npz appended if missing).

    Hyper-parameters are stored as a JSON header together with the library
    ``__version__``; fitted state as numpy arrays. Raises
    :class:`ValidationError` for unsupported or unfitted models.
    """
    type_name = type(model).__name__
    if type_name not in _REGISTRY:
        raise ValidationError(
            f"cannot save a {type_name}; supported: {sorted(_REGISTRY)}"
        )
    check_is_fitted(model, _CHECK_ATTRIBUTE[type_name])
    _, fitted_attributes = _REGISTRY[type_name]

    array_params = _ARRAY_PARAMS.get(type_name, ())
    header = {
        "format_version": _FORMAT_VERSION,
        "library_version": __version__,
        "model_type": type_name,
        "params": _jsonable_params({
            key: value
            for key, value in model.get_params().items()
            if key not in array_params
        }),
    }
    arrays = {}
    for name in array_params:
        value = getattr(model, name, None)
        if value is None:
            arrays[f"_none_param__{name}"] = np.array(0)
        else:
            arrays[f"param__{name}"] = np.asarray(value, dtype=np.float64)
    for name in fitted_attributes:
        value = getattr(model, name, None)
        if value is None:
            arrays[f"_none__{name}"] = np.array(0)
        else:
            arrays[f"attr__{name}"] = np.asarray(value)
    pack = _PACK_HOOKS.get(type_name)
    if pack is not None:
        for name, value in pack(model).items():
            arrays[f"attr__{name}"] = np.asarray(value)

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    # Crash-safe: savez into the atomic-write temp handle (a file object,
    # because np.savez would append ``.npz`` to a bare temp *name*,
    # orphaning the artifact under a different path).
    atomic_write(path, lambda handle: np.savez(handle, header=np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    ), **arrays))
    return path


def read_header(path) -> dict:
    """Return the validated JSON header of a saved model without loading it.

    The header carries ``model_type``, ``params``, ``format_version`` and
    (format >= 2) ``library_version`` — everything a registry needs to
    describe an artifact cheaply.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"model file not found: {path}")
    with _open_archive(path) as archive:
        return _validated_header(archive, path)


def load_model(path):
    """Load an estimator saved by :func:`save_model`.

    Raises :class:`ValidationError` when the file is missing, malformed, or
    was written by an incompatible (different major) library version.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"model file not found: {path}")
    with _open_archive(path) as archive:
        header = _validated_header(archive, path)
        type_name = header["model_type"]
        module, fitted_attributes = _REGISTRY[type_name]
        cls = getattr(importlib.import_module(module, __package__), type_name)
        params = dict(header["params"])
        if type_name in ("PFR", "KernelPFR"):
            _drop_retired_params(params, path)

        model = cls(**params)
        for name in _ARRAY_PARAMS.get(type_name, ()):
            if f"_none_param__{name}" in archive:
                setattr(model, name, None)
            elif f"param__{name}" in archive:
                setattr(model, name, archive[f"param__{name}"])
        for name in fitted_attributes:
            key = f"attr__{name}"
            none_key = f"_none__{name}"
            if none_key in archive:
                setattr(model, name, None)
                continue
            if key not in archive:
                if name in _OPTIONAL_ATTRS:
                    continue
                raise ValidationError(
                    f"{path} is not a valid {type_name} artifact: missing "
                    f"fitted attribute {name!r}"
                )
            value = archive[key]
            setattr(model, name, _restore_scalar(value))
        unpack = _UNPACK_HOOKS.get(type_name)
        if unpack is not None:
            unpack(model, {
                key[len("attr__"):]: archive[key]
                for key in archive.files
                if key.startswith("attr__")
            })
    return model


def _drop_retired_params(params: dict, path: Path) -> None:
    """Remove the retired numeric options from a PFR-family header's params.

    Every 1.1.0 artifact records all four. One that names the path every
    fit now takes loads as before; any other value is refused rather than
    served through a different path.
    """
    from .core.plan import RETIRED_PARAMS, retired_param_message

    for name, surviving in RETIRED_PARAMS.items():
        if name not in params:
            continue
        value = params.pop(name)
        if surviving is not None and value not in surviving:
            raise ValidationError(
                f"{path} records {name}={value!r}; {retired_param_message(name)}"
            )


def _open_archive(path: Path):
    """np.load with its failure modes normalized to :class:`ValidationError`.

    Garbage bytes raise ValueError, truncated/corrupt zips raise
    zipfile.BadZipFile (not an OSError subclass) — callers were promised
    ValidationError for malformed files.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path} is not a repro model file: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        # A bare .npy payload loads as an ndarray, not an archive.
        raise ValidationError(
            f"{path} is not a repro model file: not an npz archive"
        )
    return archive


def _validated_header(archive, path: Path) -> dict:
    """Parse and validate the JSON header of an open npz archive."""
    try:
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
    except (KeyError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path} is not a repro model file: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError(
            f"{path} is not a repro model file: header is not a JSON object"
        )
    format_version = header.get("format_version")
    if format_version not in _READABLE_FORMATS:
        raise ValidationError(f"unsupported model format {format_version!r}")
    if format_version >= 2:
        _check_library_version(header.get("library_version"), path)
    type_name = header.get("model_type")
    if type_name not in _REGISTRY:
        raise ValidationError(f"unknown model type {type_name!r}")
    return header


def _check_library_version(saved: object, path: Path) -> None:
    """Reject artifacts written by an incompatible (different major) release."""
    if not isinstance(saved, str) or not saved:
        raise ValidationError(
            f"{path} lacks a library_version stamp; refusing to load"
        )
    saved_major = saved.split(".", 1)[0]
    current_major = __version__.split(".", 1)[0]
    if saved_major != current_major:
        raise ValidationError(
            f"{path} was saved by repro {saved} which is incompatible with "
            f"the installed repro {__version__} (major version mismatch); "
            "re-fit and re-save the model with this version"
        )


def _jsonable_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None and not isinstance(
            value, (bool, int, float, str, list)
        ):
            raise ValidationError(
                f"hyper-parameter {key!r} of type {type(value).__name__} "
                "cannot be serialized"
            )
        out[key] = value
    return out


def _restore_scalar(value: np.ndarray):
    """0-d arrays come back as python scalars; everything else stays array."""
    if value.ndim == 0:
        return value.item()
    return value
