"""LRU result cache for the transform service.

Production traffic to a fairness-representation service is heavy-tailed:
the same individuals (active users, repeat applicants) are looked up far
more often than cold ones. Because a fitted transformer is a pure function
of its input row, the projected representation can be cached by a digest of
the raw feature vector and served without touching the matmul at all.

The cache is a plain ordered-dict LRU guarded by a lock — safe to share
between concurrent request threads. Its values are the immutable
``bytes`` rows :class:`~repro.serving.TransformService` stores, stored
and returned as they are, so an entry costs only its row's bytes plus the
key and the LRU bookkeeping, and no caller can alter an entry another
caller reads.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..exceptions import ValidationError

__all__ = ["LRUCache", "row_digest", "matrix_digests"]


#: Never updated; every :func:`matrix_digests` row hashes into a copy.
_EMPTY_HASHER = hashlib.blake2b(digest_size=16)


def row_digest(row) -> bytes:
    """Stable digest of one feature row.

    The row is canonicalized to contiguous float64 before hashing so that
    logically equal inputs (lists, float32 views, non-contiguous slices)
    collide on purpose. blake2b is used for speed; 16 bytes of digest keep
    accidental collisions at the ``2^-64`` level, far below any numerical
    concern.
    """
    canonical = np.ascontiguousarray(row, dtype=np.float64)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(canonical.tobytes())
    return hasher.digest()


def matrix_digests(X: np.ndarray) -> list[bytes]:
    """Per-row digests of a 2-D matrix (one :func:`row_digest` per row)."""
    canonical = np.ascontiguousarray(X, dtype=np.float64)
    if canonical.ndim != 2:
        raise ValidationError(
            f"matrix_digests expects a 2-D matrix; got ndim={canonical.ndim}"
        )
    # Each row of a C-contiguous matrix is itself contiguous, so it is
    # hashed through the buffer protocol without a bytes copy. Copying an
    # empty hasher is cheaper than constructing one per row.
    digests = []
    for row in canonical:
        hasher = _EMPTY_HASHER.copy()
        hasher.update(row)
        digests.append(hasher.digest())
    return digests


class LRUCache:
    """Thread-safe least-recently-used cache of ``bytes`` rows.

    Lookups and inserts are batched, one lock acquisition per request
    block, with hit/miss accounting read through :meth:`info`.

    Parameters
    ----------
    max_size:
        Maximum number of entries retained; the least recently *used*
        (read or written) entry is evicted first. ``max_size=0`` disables
        caching entirely (every lookup misses, nothing is stored).
    """

    def __init__(self, max_size: int = 100_000):
        if max_size < 0:
            raise ValidationError(f"max_size must be >= 0; got {max_size}")
        self.max_size = max_size
        self._entries: OrderedDict[bytes, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get_many(self, keys) -> list:
        """Vector lookup: the value of each key, or ``None`` on a miss.

        Updates recency and the hit/miss counters.
        """
        keys = list(keys)
        with self._lock:
            entries = self._entries
            out = list(map(entries.get, keys))
            hits = [key for key, value in zip(keys, out) if value is not None]
            for key in hits:
                entries.move_to_end(key)
            self._hits += len(hits)
            self._misses += len(out) - len(hits)
            return out

    def put_many(self, pairs) -> None:
        """Vector insert of (key, value) pairs, evicting the oldest entries
        beyond ``max_size``."""
        if self.max_size == 0:
            return
        with self._lock:
            entries = self._entries
            for key, value in pairs:
                entries[key] = value
                entries.move_to_end(key)
            for _ in range(len(entries) - self.max_size):
                entries.popitem(last=False)

    def info(self) -> dict:
        """Counters snapshot: size, capacity, hits, misses, hit_rate."""
        with self._lock:
            hits, misses = self._hits, self._misses
            size = len(self._entries)
        total = hits + misses
        return {
            "size": size,
            "max_size": self.max_size,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
