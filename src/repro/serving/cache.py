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

A computed row is stored on its *second* sighting, not its first: the
service asks :meth:`LRUCache.admit` which of its computed rows were seen
in an earlier request and stores only those. Rows that arrive once never
enter the LRU, so they neither cost memory nor evict the rows that repeat.
"""

from __future__ import annotations

import hashlib
import struct
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


#: A digest's four little-endian 32-bit words: the doorkeeper's probes.
_WORDS = struct.Struct("<4I")

#: Up to this many keys, :meth:`_Doorkeeper.admit` probes in a Python loop;
#: more take one vectorized pass. The loop costs ~1.2 µs a key, the
#: vectorized pass ~6 µs of fixed numpy calls (a single key: 2 µs vs 6 µs).
_LOOP_KEYS = 4

#: The bit of a filter byte each probe position ``p`` sets: ``_BIT[p & 7]``.
_BIT = np.array([1 << bit for bit in range(8)], dtype=np.uint8)


class _Doorkeeper:
    """Admission rule of the serving cache: store a row on its second sighting.

    The "doorkeeper" of TinyLFU (Einziger, Friedman & Manes, ACM TOS
    2017): a Bloom filter over row digests records each row's first miss,
    and only a row recorded before is admitted to the LRU. The filter has
    one byte (8 bits) per cache row and 4 probes, about 2% false positives
    when full, and is cleared after ``max_size`` recordings, so it forgets
    rows about as fast as the LRU could hold them. :func:`matrix_digests`
    digests are uniform blake2b output, so the four probe positions are the
    digest's four 32-bit words and need no second hash.
    """

    def __init__(self, max_size: int):
        self._cells = bytearray(max_size)
        self._filter = np.frombuffer(self._cells, dtype=np.uint8)  # a view
        self._bits = 8 * max_size
        self._recorded = 0
        self._lock = threading.Lock()
        self.declined = 0  # first sightings kept out of the LRU, ever

    def admit(self, keys) -> list[bool]:
        """Whether each key was recorded before; records every key.

        Every key is checked before any is recorded, so keys of one call
        never admit each other.
        """
        if len(keys) > _LOOP_KEYS:
            return self._admit_block(keys)
        bits, cells = self._bits, self._cells
        probes = [[word % bits for word in _WORDS.unpack(key)] for key in keys]
        with self._lock:
            seen = [all(cells[p >> 3] >> (p & 7) & 1 for p in positions)
                    for positions in probes]
            if self._note_declined(seen.count(False)):
                for positions in probes:
                    for p in positions:
                        cells[p >> 3] |= 1 << (p & 7)
        return seen

    def _admit_block(self, keys) -> list[bool]:
        """:meth:`admit` of many keys in one vectorized pass."""
        words = np.frombuffer(b"".join(keys), dtype="<u4")
        probes = words.astype(np.int64) % self._bits
        byte, mask = probes >> 3, _BIT[probes & 7]
        with self._lock:
            seen = (self._filter[byte] & mask).reshape(-1, 4).all(axis=1)
            if self._note_declined(len(seen) - int(np.count_nonzero(seen))):
                np.bitwise_or.at(self._filter, byte, mask)
        return seen.tolist()

    def _note_declined(self, count: int) -> bool:
        """Count ``count`` first sightings about to be recorded, clearing a
        full filter first; whether there are any. Called under the lock.

        A seen key's bits are set already (unless just cleared), so the
        callers OR every key's probes in, at no cost for a seen one.
        """
        if not count:
            return False
        if self._recorded >= len(self._cells):
            self._filter[:] = 0
            self._recorded = 0
        self._recorded += count
        self.declined += count
        return True


class LRUCache:
    """Thread-safe least-recently-used cache of ``bytes`` rows.

    Lookups and inserts are batched, one lock acquisition per request
    block, with hit/miss accounting read through :meth:`info`. Its
    admission rule, :meth:`admit`, tells a caller which computed rows to
    store: those seen before.

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
        self._doorkeeper = _Doorkeeper(max_size)

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

    def admit(self, keys) -> list[bool]:
        """Whether each missed key was seen by an earlier :meth:`admit`.

        Records every key, so a computed row is stored on its second
        sighting: a caller ``put_many``s only the keys admitted. Each
        first sighting counts as ``declined`` in :meth:`info`. With
        ``max_size=0`` nothing is admitted or recorded.
        """
        if self.max_size == 0:
            return [False] * len(keys)
        return self._doorkeeper.admit(keys)

    def info(self) -> dict:
        """Counters snapshot: size, capacity, hits, misses, hit_rate and
        the first sightings :meth:`admit` declined."""
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
            "declined": self._doorkeeper.declined,
        }
