"""Canonical task digests: the content addresses of the run ledger.

Every ledger entry is keyed by the SHA-256 of a *canonical JSON* encoding
of its task descriptor — a plain dict naming everything the result is a
function of (dataset content, harness configuration, method, parameters,
seed, fold layout). Two tasks collide on a digest exactly when they would
produce the same result, which is what makes resume, incremental grid
extension, and cross-process deduplication free: the digest *is* the
cache key, and it is stable across processes, machines and sessions.

Canonicalization rules:

* dict keys are sorted, separators are fixed (no whitespace variance);
* numpy scalars collapse to their python equivalents, tuples to lists —
  the same logical task always serializes to the same bytes;
* floats round-trip through ``repr`` (exact for finite float64), so a
  γ of ``0.30000000000000004`` and ``0.3`` are — correctly — different
  tasks.

Dataset content is fingerprinted by hashing the actual arrays
(:func:`dataset_fingerprint`), not the generator arguments, so a task is
keyed by *what the data is*, never by how it was produced.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .._version import NUMERICS_VERSION
from ..exceptions import ValidationError

__all__ = [
    "canonical_json",
    "task_digest",
    "array_digest",
    "dataset_fingerprint",
]

#: Bump when the canonicalization rules or entry layout change
#: incompatibly; it is folded into every digest so stale-format entries
#: can never be mistaken for hits.
STORE_FORMAT = 1

_DIGEST_CACHE_KEY = "_repro_content_digest"


def _plain(value):
    """Recursively convert ``value`` to canonical JSON-safe python types."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (str, type(None))):
        return value
    if isinstance(value, np.ndarray):
        return [_plain(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    raise ValidationError(
        f"cannot canonicalize a {type(value).__name__} for a task digest"
    )


def canonical_json(value) -> str:
    """Deterministic JSON text of ``value`` (sorted keys, fixed separators)."""
    return json.dumps(
        _plain(value), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def task_digest(task: dict) -> str:
    """SHA-256 hex digest of a canonical task descriptor.

    ``task`` must be a dict carrying a ``"kind"`` key (``"method_result"``,
    ``"tuned_point"``, ``"model"``, ...) — the kind namespaces the digest so
    that, e.g., a model artifact and the evaluation it came from can share
    the rest of their descriptor without colliding.
    """
    if not isinstance(task, dict) or "kind" not in task:
        raise ValidationError("a ledger task must be a dict with a 'kind' key")
    digest = hashlib.sha256()
    # The numerics version is part of the address: a result is a function
    # of the *code* as much as of the task, so entries written under one
    # numerics version can never be served as hits under another — a
    # NUMERICS_VERSION bump invalidates the whole ledger by construction,
    # while a release that moves no bits keeps it. (A change that moves bits
    # without that bump is outside this contract; bump it.)
    digest.update(f"repro-store-v{STORE_FORMAT}@{NUMERICS_VERSION}\n".encode())
    digest.update(canonical_json(task).encode("utf-8"))
    return digest.hexdigest()


def array_digest(*arrays) -> str:
    """SHA-256 hex digest of one or more numpy arrays (dtype + shape + bytes)."""
    digest = hashlib.sha256()
    for array in arrays:
        if array is None:
            digest.update(b"none")
            continue
        array = np.ascontiguousarray(array)
        digest.update(array.dtype.str.encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def dataset_fingerprint(dataset) -> dict:
    """Content-addressed fingerprint of a :class:`~repro.datasets.Dataset`.

    Hashes the arrays the experiments actually consume — features, labels,
    protected attribute, side information — plus the protected-column
    layout, so two datasets fingerprint identically iff every downstream
    result would be identical. The hash is cached in ``dataset.metadata``
    (the one mutable field of the frozen dataclass), so repeated task
    digests over the same dataset cost a dict lookup, not a re-hash.
    """
    cached = None
    if isinstance(dataset.metadata, dict):
        cached = dataset.metadata.get(_DIGEST_CACHE_KEY)
    if cached is None:
        digest = hashlib.sha256()
        digest.update(str(dataset.name).encode())
        digest.update(repr(tuple(dataset.protected_columns)).encode())
        digest.update(
            array_digest(
                dataset.X, dataset.y, dataset.s, dataset.side_information
            ).encode()
        )
        cached = digest.hexdigest()
        if isinstance(dataset.metadata, dict):
            dataset.metadata[_DIGEST_CACHE_KEY] = cached
    return {
        "name": str(dataset.name),
        "n_samples": int(dataset.n_samples),
        "sha256": cached,
    }
