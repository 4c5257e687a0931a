"""Tests for repro.serving.cache — digests and the LRU result cache."""

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serving import LRUCache, matrix_digests, row_digest


class TestRowDigest:
    def test_deterministic(self, rng):
        row = rng.normal(size=7)
        assert row_digest(row) == row_digest(row.copy())

    def test_dtype_and_layout_canonicalized(self, rng):
        row = rng.normal(size=6)
        assert row_digest(row) == row_digest(list(row))
        assert row_digest(row) == row_digest(row.astype(np.float64))
        strided = np.vstack([row, row])[::2][0]
        assert row_digest(row) == row_digest(strided)

    def test_different_rows_differ(self, rng):
        a = rng.normal(size=5)
        b = a.copy()
        b[2] += 1e-9
        assert row_digest(a) != row_digest(b)

    def test_matrix_digests_match_row_digests(self, rng):
        X = rng.normal(size=(9, 4))
        assert matrix_digests(X) == [row_digest(row) for row in X]

    def test_matrix_digests_rejects_1d(self, rng):
        with pytest.raises(ValidationError, match="2-D"):
            matrix_digests(rng.normal(size=5))


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(max_size=4)
        assert cache.get_many([b"a"]) == [None]
        cache.put_many([(b"a", b"1")])
        assert cache.get_many([b"a"]) == [b"1"]
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["hit_rate"] == 0.5

    def test_eviction_is_lru(self):
        cache = LRUCache(max_size=2)
        cache.put_many([(b"a", b"1"), (b"b", b"2")])
        cache.get_many([b"a"])   # refresh a -> b is now oldest
        cache.put_many([(b"c", b"3")])
        assert cache.get_many([b"a", b"b", b"c"]) == [b"1", None, b"3"]

    def test_zero_capacity_disables(self):
        cache = LRUCache(max_size=0)
        cache.put_many([(b"a", b"1")])
        assert cache.get_many([b"a"]) == [None]
        assert cache.info()["size"] == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError, match="max_size"):
            LRUCache(max_size=-1)

    def test_get_many_put_many(self):
        cache = LRUCache(max_size=10)
        cache.put_many([(b"a", b"1"), (b"b", b"2")])
        assert cache.get_many([b"a", b"x", b"b"]) == [b"1", None, b"2"]
        assert cache.info()["hits"] == 2
        assert cache.info()["misses"] == 1

    def test_put_many_evicts_beyond_capacity(self):
        cache = LRUCache(max_size=3)
        cache.put_many([(bytes([i]), bytes([i])) for i in range(6)])
        assert cache.info()["size"] == 3
        assert cache.get_many([bytes([5]), bytes([0])]) == [bytes([5]), None]

    def test_info_snapshot(self):
        cache = LRUCache(max_size=8)
        cache.put_many([(b"k", b"42")])
        cache.get_many([b"k"])
        info = cache.info()
        assert info == {
            "size": 1, "max_size": 8, "hits": 1, "misses": 0, "hit_rate": 1.0,
            "declined": 0,
        }

    def test_non_array_values_pass_through(self):
        # Values are stored and returned as they are: the row bytes the
        # service caches are immutable, so no copy guards them.
        cache = LRUCache(max_size=4)
        payload = bytes(range(16))
        cache.put_many([(b"k", payload)])
        assert cache.get_many([b"k"])[0] is payload

    def test_thread_safety_smoke(self):
        cache = LRUCache(max_size=64)
        errors = []

        def hammer(worker):
            try:
                for i in range(500):
                    key = bytes([worker, i % 32])
                    cache.put_many([(key, bytes([i % 256]))])
                    cache.get_many([key])
                    cache.get_many([key, bytes([255, worker])])
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        info = cache.info()
        assert info["size"] <= 64
        assert info["hits"] + info["misses"] == 6 * 500 * 3


class TestAdmit:
    """The admission rule: a key is admitted on its second sighting."""

    @pytest.mark.parametrize("n", [1, 8])  # one key and a block: one probe
    def test_admits_on_second_sighting(self, rng, n):
        cache = LRUCache(max_size=100)
        keys = matrix_digests(rng.normal(size=(n, 3)))
        assert cache.admit(keys) == [False] * n
        assert cache.admit(keys) == [True] * n
        assert cache.info()["declined"] == n  # only first sightings decline

    def test_filter_is_one_byte_per_cache_row(self):
        assert LRUCache(max_size=1000)._doorkeeper._filter.nbytes == 1000

    def test_disabled_cache_admits_nothing(self, rng):
        cache = LRUCache(max_size=0)
        keys = matrix_digests(rng.normal(size=(3, 3)))
        for _ in range(2):
            assert cache.admit(keys) == [False] * 3
        assert cache.info()["declined"] == 0

    @pytest.mark.parametrize("fresh", [1, 2, 8, 64])
    def test_matches_a_loop_reference(self, rng, fresh):
        # The probe against a per-key loop over a Python set of bit
        # positions: the four 32-bit words of each digest, modulo the
        # filter's bits. Each batch repeats up to two keys of the one
        # before, and the filter fills and clears on the way.
        max_size = 16
        cache = LRUCache(max_size=max_size)
        recorded, keys, declined = set(), [], 0
        for _ in range(12):
            keys = keys[:2][:fresh] + matrix_digests(rng.normal(size=(fresh, 3)))
            probes = [
                [int.from_bytes(key[i:i + 4], "little") % (8 * max_size)
                 for i in range(0, 16, 4)]
                for key in keys
            ]
            expected = [all(p in recorded for p in ps) for ps in probes]
            assert cache.admit(keys) == expected
            if not all(expected):
                if declined >= max_size:
                    recorded.clear()
                    declined = 0
                for ps in probes:
                    recorded.update(ps)
                declined += expected.count(False)
            bits = np.unpackbits(cache._doorkeeper._filter, bitorder="little")
            assert set(np.flatnonzero(bits).tolist()) == recorded

    def test_cleared_after_max_size_recordings(self, rng):
        cache = LRUCache(max_size=16)
        first = matrix_digests(rng.normal(size=(16, 3)))
        cache.admit(first)
        # The filter is full: recording the next fresh rows clears it, so
        # the first rows are forgotten and decline again.
        cache.admit(matrix_digests(rng.normal(size=(1, 3))))
        assert not any(cache.admit(first))

    @pytest.mark.parametrize("n", [2, 32])
    def test_thread_safety_smoke(self, rng, n):
        cache = LRUCache(max_size=100_000)
        batches = [matrix_digests(rng.normal(size=(n, 3))) for _ in range(8)]

        def worker():
            for _ in range(20):
                for keys in batches:
                    cache.admit(keys)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Check and record are one step: no row declines twice.
        assert cache.info()["declined"] == 8 * n
        assert all(all(cache.admit(keys)) for keys in batches)
