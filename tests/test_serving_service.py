"""Tests for repro.serving.service — the TransformService façade."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    LFR,
    PFR,
    IFair,
    KernelPFR,
    MaskedRepresentation,
    SideInformationAugmenter,
)
from repro.exceptions import ValidationError
from repro.graphs import pairwise_judgment_graph
from repro.ml import StandardScaler
from repro.serving import ModelRegistry, TransformService
from repro.serving import cache as cache_module
from repro.serving import service as service_module


@pytest.fixture
def setup(rng, tmp_path):
    X = rng.normal(size=(60, 5))
    WF = pairwise_judgment_graph([(0, 1), (4, 9)], n=60)
    model = PFR(n_components=2, gamma=0.5, n_neighbors=4).fit(X, WF)
    registry = ModelRegistry(tmp_path / "registry")
    registry.register("pfr", model)
    return registry, model, X


class TestTransform:
    def test_matches_direct_transform(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(12, 5))
        np.testing.assert_allclose(
            service.transform("pfr", Xq), model.transform(Xq)
        )

    def test_spec_forms(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(3, 5))
        expected = model.transform(Xq)
        for spec in ("pfr", "pfr@latest", "pfr@1"):
            np.testing.assert_allclose(service.transform(spec, Xq), expected)

    def test_transform_one(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        row = rng.normal(size=5)
        np.testing.assert_allclose(
            service.transform_one("pfr", row), model.transform(row[None])[0]
        )
        with pytest.raises(ValidationError, match="1-D"):
            service.transform_one("pfr", rng.normal(size=(2, 5)))

    def test_unknown_model(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        with pytest.raises(ValidationError, match="unknown model"):
            service.transform("ghost", rng.normal(size=(2, 5)))

    def test_schema_mismatch(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        with pytest.raises(ValidationError, match="schema mismatch"):
            service.transform("pfr", rng.normal(size=(4, 3)))

    def test_rejects_1d_matrix(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        with pytest.raises(ValidationError, match="2-D"):
            service.transform("pfr", rng.normal(size=5))

    def test_chunked_bulk_matches(self, setup, rng, monkeypatch):
        registry, model, _ = setup
        monkeypatch.setattr(service_module, "_CHUNK_ROWS", 7)
        service = TransformService(registry, cache_size=0)
        Xq = rng.normal(size=(40, 5))
        np.testing.assert_allclose(
            service.transform("pfr", Xq), model.transform(Xq)
        )
        # The model sees blocks of at most _CHUNK_ROWS rows, in order.
        served = service._models[("pfr", 1)]
        sizes = []

        def recording(X):
            sizes.append(X.shape[0])
            return model.transform(X)

        served.model = SimpleNamespace(transform=recording)
        np.testing.assert_allclose(
            service.transform("pfr", Xq), model.transform(Xq)
        )
        assert sizes == [7] * 5 + [5]

    @pytest.mark.parametrize("bad", [[10 ** 400, 1, 2, 3, 4], ["a"] * 5,
                                     {"x": 1}, [[1, 2], 3, 4, 5, 6]])
    def test_non_numeric_row_is_a_validation_error(self, setup, bad):
        registry, *_ = setup
        service = TransformService(registry)
        with pytest.raises(ValidationError, match="numeric"):
            service.transform_one("pfr", bad)

    def test_empty_batch_rejected(self, setup):
        registry, *_ = setup
        service = TransformService(registry)
        with pytest.raises(ValidationError, match="non-empty"):
            service.transform("pfr", np.empty((0, 5)))

    def test_bad_rows_rejected_before_resolution(self, setup):
        # Malformed input to an unknown model reports the input, not the
        # model: coercion and rank come before the spec is resolved.
        registry, *_ = setup
        service = TransformService(registry)
        with pytest.raises(ValidationError, match="numeric"):
            service.transform("ghost", [[1.0, 2.0], [3.0]])


class TestCaching:
    def test_transform_one_counts_one_miss_one_hit(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        row = rng.normal(size=5)
        service.transform_one("pfr", row)  # first sighting: not stored
        service.transform_one("pfr", row)
        service.transform_one("pfr", row)
        cache = service.stats()["models"]["pfr@1"]["cache"]
        assert cache["hits"] == 1
        assert cache["misses"] == 2
        assert cache["hit_rate"] == 1 / 3

    def test_repeat_hits_cache(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(10, 5))
        service.transform("pfr", Xq)  # first sighting: not stored
        Z1 = service.transform("pfr", Xq)
        Z2 = service.transform("pfr", Xq)
        np.testing.assert_allclose(Z1, Z2)
        totals = service.stats()["totals"]
        assert totals["cache_hits"] == 10
        assert totals["cache_misses"] == 20

    def test_duplicates_within_request_computed_once(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        row = rng.normal(size=5)
        Xq = np.tile(row, (6, 1))
        service.transform("pfr", Xq)  # first sighting: not stored
        Z = service.transform("pfr", Xq)
        np.testing.assert_allclose(Z, model.transform(Xq))
        cache_info = service.stats()["models"]["pfr@1"]["cache"]
        assert cache_info["size"] == 1

    def test_partial_hits_assembled_correctly(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        Xa = rng.normal(size=(5, 5))
        Xb = rng.normal(size=(5, 5))
        service.transform("pfr", Xa)  # first sighting: not stored
        service.transform("pfr", Xa)
        mixed = np.vstack([Xb[:2], Xa[1:3], Xb[2:]])
        np.testing.assert_allclose(
            service.transform("pfr", mixed), model.transform(mixed)
        )
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == 2

    def test_caller_mutation_cannot_corrupt_cache(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(5, 5))
        expected = model.transform(Xq)
        service.transform("pfr", Xq)  # first sighting: not stored
        Z = service.transform("pfr", Xq)
        Z[:] = -999.0  # hostile caller scribbles over its result
        np.testing.assert_allclose(service.transform("pfr", Xq), expected)
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == 5

    def test_transform_one_rows_are_readonly_hit_or_miss(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        row = rng.normal(size=5)
        expected = model.transform(row[None])[0]
        service.transform_one("pfr", row)  # first sighting: not stored
        miss = service.transform_one("pfr", row)  # miss populates the cache
        hit = service.transform_one("pfr", row)
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == 1
        # Mutability must not depend on cache state: both paths raise
        # instead of corrupting (or appearing to tolerate) mutation.
        for result in (miss, hit):
            with pytest.raises(ValueError):
                result[0] = -999.0
        np.testing.assert_allclose(service.transform_one("pfr", row), expected)

    def test_transform_one_hits_rows_a_batch_served(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(4, 5))
        service.transform("pfr", Xq)  # first sighting: not stored
        Z = service.transform("pfr", Xq)
        z = service.transform_one("pfr", Xq[2])
        assert np.array_equal(z, Z[2])
        cache = service.stats()["models"]["pfr@1"]["cache"]
        assert cache["misses"] == 8
        assert cache["hits"] == 1

    def test_cache_disabled(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry, cache_size=0)
        Xq = rng.normal(size=(4, 5))
        service.transform("pfr", Xq)
        service.transform("pfr", Xq)
        totals = service.stats()["totals"]
        assert totals["cache_hits"] == 0

    @pytest.mark.parametrize("size", [-1, 2.5, "10"])
    def test_bad_cache_size_rejected_at_construction(self, setup, size):
        # Regression: a negative size used to construct, and then every
        # transform failed building the model's cache.
        registry, *_ = setup
        with pytest.raises(ValidationError, match="cache_size"):
            TransformService(registry, cache_size=size)

    def test_transform_one_readonly_with_cache_disabled(self, setup, rng):
        # Regression: with cache_size=0 transform_one used to return a
        # *writable* row, so mutability depended on cache state — the exact
        # thing the documented contract forbids.
        registry, model, _ = setup
        service = TransformService(registry, cache_size=0)
        row = rng.normal(size=5)
        result = service.transform_one("pfr", row)
        with pytest.raises(ValueError):
            result[0] = -999.0
        np.testing.assert_allclose(result, model.transform(row[None])[0])


class TestByteRowEntries:
    """Served rows are float64; cached rows are their immutable ``bytes``."""

    @pytest.fixture
    def stub_service(self, setup):
        # A stub model that keeps every float64 array it hands out, so a
        # test can scribble over them later.
        registry, model, _ = setup
        service = TransformService(registry)
        returned = []

        def transform(X):
            out = model.transform(X)
            returned.append(out)
            return out

        service._served("pfr").model = SimpleNamespace(transform=transform)
        return service, model, returned

    def test_entries_are_bytes(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(3, 5))
        service.transform("pfr", Xq)  # first sighting: not stored
        Z = service.transform("pfr", Xq)
        from repro.serving.cache import matrix_digests

        entries = service._models[("pfr", 1)].cache.get_many(matrix_digests(Xq))
        assert [type(entry) for entry in entries] == [bytes] * 3
        assert b"".join(entries) == Z.tobytes()

    def test_hit_equals_miss_bitwise_in_model_dtype(self, stub_service, rng):
        service, model, _ = stub_service
        Xa, Xb = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        service.transform("pfr", Xa)  # first sighting: not stored
        miss = service.transform("pfr", Xa)
        hit = service.transform("pfr", Xa)
        mixed = service.transform("pfr", np.vstack([Xb[:1], Xa[2:], Xb[1:]]))
        one = service.transform_one("pfr", Xa[1])
        expected = model.transform(Xa)
        for Z in (miss, hit, one[None]):
            assert Z.dtype == np.float64
        assert miss.tobytes() == hit.tobytes() == expected.tobytes()
        assert one.tobytes() == expected[1].tobytes()
        assert mixed.dtype == np.float64
        assert mixed[1:3].tobytes() == expected[2:].tobytes()
        cache = service.stats()["models"]["pfr@1"]["cache"]
        assert cache["hits"] == 4 + 2 + 1

    def test_hit_rows_cannot_be_made_writeable(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        row = rng.normal(size=5)
        service.transform_one("pfr", row)  # first sighting: not stored
        for _ in ("miss", "hit"):
            z = service.transform_one("pfr", row)
            with pytest.raises(ValueError):
                z.setflags(write=True)
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == 1

    def test_batch_results_stay_writeable(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(3, 5))
        service.transform("pfr", Xq)  # first sighting: not stored
        for _ in ("miss", "hit"):
            Z = service.transform("pfr", Xq)
            Z[:] = -999.0  # a caller's own copy, hit or miss
        assert service.transform("pfr", Xq)[0, 0] != -999.0
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == 6

    def test_mutating_the_models_array_cannot_alter_cache(
        self, stub_service, rng
    ):
        service, model, returned = stub_service
        Xq = rng.normal(size=(4, 5))
        expected = model.transform(Xq)
        service.transform("pfr", Xq)  # first sighting: not stored
        service.transform("pfr", Xq)
        for array in returned:
            array[:] = -999.0
        assert service.transform("pfr", Xq).tobytes() == expected.tobytes()
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == 4

    def test_every_sighting_serves_the_same_bytes(self, stub_service, rng):
        # First sighting (recorded), second (computed and stored), hit.
        service, model, _ = stub_service
        Xq = rng.normal(size=(3, 5))
        expected = model.transform(Xq)
        served = [service.transform("pfr", Xq) for _ in ("first", "second", "hit")]
        for Z in served:
            assert Z.dtype == np.float64
            assert Z.tobytes() == expected.tobytes()
        cache = service.stats()["models"]["pfr@1"]["cache"]
        assert (cache["hits"], cache["misses"]) == (3, 6)

    def test_float32_model_served_as_float64(self, setup, rng):
        # One row format: a model returning float32 is served as float64
        # on every sighting, and a hit replays the computed bytes.
        registry, model, _ = setup
        service = TransformService(registry)
        service._served("pfr").model = SimpleNamespace(
            transform=lambda X: model.transform(X).astype(np.float32)
        )
        Xq = rng.normal(size=(3, 5))
        expected = model.transform(Xq).astype(np.float32).astype(np.float64)
        for _ in ("first", "second", "hit"):
            Z = service.transform("pfr", Xq)
            assert Z.dtype == np.float64
            assert Z.tobytes() == expected.tobytes()
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == 3

    # One builder per servable type: (X, WF, rng) -> a fitted model.
    SERVABLE = {
        "PFR": lambda X, WF, rng: PFR(
            n_components=2, gamma=0.5, n_neighbors=4).fit(X, WF),
        "KernelPFR": lambda X, WF, rng: KernelPFR(
            n_components=2, n_neighbors=4).fit(X, WF),
        "IFair": lambda X, WF, rng: IFair(
            n_prototypes=3, max_iter=15, protected_columns=[3]).fit(X),
        "LFR": lambda X, WF, rng: LFR(n_prototypes=3, max_iter=15).fit(
            X, (X[:, 0] > 0).astype(int), s=(X[:, 1] > 0).astype(int)),
        "MaskedRepresentation": lambda X, WF, rng: MaskedRepresentation(
            protected_columns=[0, 3]).fit(X),
        "StandardScaler": lambda X, WF, rng: StandardScaler().fit(X),
        "SideInformationAugmenter": lambda X, WF, rng: SideInformationAugmenter(
            side_information=rng.random(len(X))).fit(X),
    }

    @pytest.mark.parametrize("model_type", sorted(SERVABLE))
    def test_every_servable_type_serves_float64_rows(
        self, model_type, rng, tmp_path
    ):
        X = rng.normal(size=(60, 5))
        WF = pairwise_judgment_graph([(0, 1), (4, 9)], n=60)
        model = self.SERVABLE[model_type](X, WF, rng)
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("m", model)
        service = TransformService(registry)
        Xq = rng.normal(size=(4, 5))
        served = [service.transform("m", Xq) for _ in ("first", "second", "hit")]
        one = service.transform_one("m", Xq[2])
        for Z in (*served, one):
            assert Z.dtype == np.float64
        assert served[0].tobytes() == model.transform(Xq).tobytes()
        assert served[1].tobytes() == served[2].tobytes() == served[0].tobytes()
        assert one.tobytes() == served[0][2].tobytes()
        assert service.stats()["models"]["m@1"]["cache"]["hits"] == 4 + 1


class TestAdmission:
    """A computed row is stored on its second sighting, not its first."""

    @pytest.fixture
    def counting_service(self, setup):
        # Records how many rows each call hands the model.
        registry, model, _ = setup
        service = TransformService(registry)
        computed = []

        def transform(X):
            computed.append(X.shape[0])
            return model.transform(X)

        service._served("pfr").model = SimpleNamespace(transform=transform)
        return service, model, computed

    def test_fresh_batches_are_never_stored(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        for _ in range(10):
            Xq = rng.normal(size=(16, 5))
            np.testing.assert_array_equal(
                service.transform("pfr", Xq), model.transform(Xq)
            )
        cache = service.stats()["models"]["pfr@1"]["cache"]
        assert cache["size"] == 0
        assert cache["misses"] == cache["declined"] == 160

    def test_hot_row_survives_a_flood_of_one_off_rows(self, setup, rng):
        # A plain LRU of 16 rows evicts the hot row after 16 one-off rows;
        # the doorkeeper keeps the one-off rows out of the LRU.
        registry, model, _ = setup
        service = TransformService(registry, cache_size=16)
        hot = rng.normal(size=5)
        service.transform_one("pfr", hot)
        service.transform_one("pfr", hot)
        for _ in range(5):
            service.transform("pfr", rng.normal(size=(8, 5)))
        hits = service.stats()["models"]["pfr@1"]["cache"]["hits"]
        z = service.transform_one("pfr", hot)
        assert service.stats()["models"]["pfr@1"]["cache"]["hits"] == hits + 1
        np.testing.assert_array_equal(z, model.transform(hot[None])[0])

    def test_repeat_inside_one_request_computed_once(self, counting_service, rng):
        service, model, computed = counting_service
        a, b = rng.normal(size=(2, 5))
        Xq = np.vstack([a, b, a, a, b, a])
        for _ in ("first", "second", "hit"):
            np.testing.assert_array_equal(
                service.transform("pfr", Xq), model.transform(Xq)
            )
        # Two distinct rows, computed on each of two sightings; then hits.
        assert computed == [2, 2]
        assert service.stats()["models"]["pfr@1"]["cache"]["size"] == 2

    def test_cache_disabled_never_touches_the_doorkeeper(
        self, setup, rng, monkeypatch
    ):
        def admit(self, keys):
            raise AssertionError("cache_size=0 reached the doorkeeper")

        monkeypatch.setattr(cache_module._Doorkeeper, "admit", admit)
        monkeypatch.setattr(cache_module.LRUCache, "admit", admit)
        registry, model, _ = setup
        service = TransformService(registry, cache_size=0)
        Xq = rng.normal(size=(4, 5))
        for _ in range(3):
            np.testing.assert_array_equal(
                service.transform("pfr", Xq), model.transform(Xq)
            )
        cache = service.stats()["models"]["pfr@1"]["cache"]
        assert cache["size"] == cache["declined"] == 0


class TestLifecycle:
    def test_latest_follows_promotion(self, setup, rng):
        registry, model, X = setup
        WF = pairwise_judgment_graph([(2, 3)], n=60)
        other = PFR(n_components=3, gamma=0.2, n_neighbors=4).fit(X, WF)
        registry.register("pfr", other)
        service = TransformService(registry)
        Xq = rng.normal(size=(4, 5))
        assert service.transform("pfr", Xq).shape == (4, 3)
        registry.promote("pfr", 1)
        assert service.transform("pfr", Xq).shape == (4, 2)

    def test_stats_shape(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        service.transform("pfr", rng.normal(size=(8, 5)))
        stats = service.stats()
        entry = stats["models"]["pfr@1"]
        assert entry["requests"] == 1
        assert entry["rows"] == 8
        assert entry["model_type"] == "PFR"
        assert entry["seconds"] > 0
        assert entry["rows_per_sec"] > 0
        assert stats["totals"]["rows"] == 8

    def test_concurrent_transforms(self, setup, rng):
        registry, model, _ = setup
        service = TransformService(registry)
        Xq = rng.normal(size=(64, 5))
        expected = model.transform(Xq)
        errors = []

        def client():
            try:
                np.testing.assert_allclose(
                    service.transform("pfr@1", Xq), expected
                )
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.stats()["totals"]["rows"] == 8 * 64


class TestConcurrentResolution:
    def test_many_threads_first_resolution(self, setup, rng):
        # Regression: _served() used to read-check-write self._resolved
        # outside _load_lock, so many threads racing the very first
        # resolution of a pinned spec could interleave mutations of the
        # memo dict. Hammer a cold service with distinct pinned specs from
        # many threads and check every answer is correct and the memo is
        # consistent afterwards.
        registry, model, X = setup
        for _ in range(7):  # versions 2..8 of the same fitted model
            registry.register("pfr", model)
        service = TransformService(registry)
        specs = [f"pfr@{v}" for v in range(1, 9)]
        expected = model.transform(X[:3])
        barrier = threading.Barrier(32)
        errors = []

        def client(i):
            barrier.wait()
            spec = specs[i % len(specs)]
            try:
                np.testing.assert_allclose(
                    service.transform(spec, X[:3]), expected
                )
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every pinned spec resolved exactly once into a consistent memo.
        assert service._resolved == {
            f"pfr@{v}": ("pfr", v) for v in range(1, 9)
        }

    def test_latest_never_memoized(self, setup, rng):
        registry, *_ = setup
        service = TransformService(registry)
        service.transform("pfr", rng.normal(size=(2, 5)))
        service.transform("pfr@latest", rng.normal(size=(2, 5)))
        assert service._resolved == {}


class TestPromoteUnderLoad:
    def test_versioned_transform_is_never_torn(self, setup, rng):
        # While promote() flips @latest back and forth, every
        # transform_versioned() answer must match the *label's* expected
        # output — a mixed (label from one version, rows from the other)
        # response means the resolve raced the transform.
        registry, model_v1, X = setup
        WF = pairwise_judgment_graph([(2, 3)], n=60)
        model_v2 = PFR(n_components=3, gamma=0.2, n_neighbors=4).fit(X, WF)
        registry.register("pfr", model_v2)  # becomes pfr@2 = latest
        service = TransformService(registry)
        Xq = rng.normal(size=(4, 5))
        expected = {
            "pfr@1": model_v1.transform(Xq),
            "pfr@2": model_v2.transform(Xq),
        }
        stop = threading.Event()
        errors = []

        def flipper():
            version = 1
            while not stop.is_set():
                registry.promote("pfr", version)
                version = 3 - version

        def client():
            count = 0
            try:
                while count < 200 and not errors:
                    spec, Z = service.transform_versioned("pfr@latest", Xq)
                    np.testing.assert_allclose(Z, expected[spec])
                    row_spec, z = service.transform_one_versioned(
                        "pfr@latest", Xq[0]
                    )
                    np.testing.assert_allclose(z, expected[row_spec][0])
                    count += 1
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        flip = threading.Thread(target=flipper)
        clients = [threading.Thread(target=client) for _ in range(4)]
        flip.start()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        stop.set()
        flip.join()
        assert not errors


class TestNonTransformer:
    def test_registered_post_processor_rejected_cleanly(self, rng, tmp_path):
        from repro import EqualizedOddsPostProcessor

        y = rng.integers(0, 2, 80)
        s = rng.integers(0, 2, 80)
        y[:4], s[:4] = [0, 1, 0, 1], [0, 0, 1, 1]
        y_pred = rng.integers(0, 2, 80)
        post = EqualizedOddsPostProcessor().fit(y, y_pred, s)
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("eo", post)
        service = TransformService(registry)
        with pytest.raises(ValidationError, match="cannot be served"):
            service.transform("eo", rng.normal(size=(3, 2)))


class TestDriftAccounting:
    """Per-request drift scoring (opt-in) behind the metrics registry."""

    @pytest.fixture
    def landmark_setup(self, rng, tmp_path):
        from repro.graphs import knn_graph

        X = rng.normal(size=(200, 5))
        model = PFR(
            n_components=2, gamma=0.5, extension="nystrom", landmarks=60
        ).fit(X, knn_graph(X, n_neighbors=6))
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("pfr", model)
        return registry, model, X

    def test_disabled_by_default(self, landmark_setup, rng):
        registry, _, _ = landmark_setup
        service = TransformService(registry)
        service.transform("pfr", rng.normal(size=(8, 5)))
        status = service.drift_status()
        assert not status["enabled"]
        assert status["models"] == {"pfr@1": None}  # loaded, no monitor

    def test_enabled_populates_window(self, landmark_setup, rng):
        registry, _, X = landmark_setup
        service = TransformService(registry, drift=True, drift_floor=0.3)
        service.transform("pfr", X[:40])
        status = service.drift_status()
        assert status["enabled"]
        snap = status["models"]["pfr@1"]
        assert snap["count"] > 0
        assert snap["floor"] == pytest.approx(0.3)

    def test_drifted_traffic_raises_drift_fraction(self, landmark_setup):
        registry, _, X = landmark_setup
        service = TransformService(
            registry, drift=True, drift_floor=0.5, drift_sample=64
        )
        service.transform("pfr", X[:64])
        calm = service.drift_status()["models"]["pfr@1"]["drift_fraction"]
        service.transform("pfr", X[:64] + 8.0)
        shifted = service.drift_status()["models"]["pfr@1"]["drift_fraction"]
        assert shifted > calm

    def test_single_row_path_scores_on_miss_not_hit(self, landmark_setup, rng):
        registry, _, _ = landmark_setup
        service = TransformService(registry, drift=True)
        row = rng.normal(size=5)
        service.transform_one("pfr", row)  # first sighting: not stored
        service.transform_one("pfr", row)
        count = service.drift_status()["models"]["pfr@1"]["count"]
        assert count == 2
        # A cache hit re-serves the embedding without re-scoring it.
        service.transform_one("pfr", row)
        assert service.drift_status()["models"]["pfr@1"]["count"] == count

    def test_partly_cached_batch_scores_only_misses(self, landmark_setup):
        registry, _, X = landmark_setup
        service = TransformService(registry, drift=True, drift_sample=64)
        service.transform("pfr", X[:10])  # first sighting: not stored
        service.transform("pfr", X[:10])
        assert service.drift_status()["models"]["pfr@1"]["count"] == 20
        service.transform("pfr", X[:25])  # 10 hits, 15 computed rows
        assert service.drift_status()["models"]["pfr@1"]["count"] == 35

    def test_batch_sampling_is_bounded(self, landmark_setup, rng):
        registry, _, X = landmark_setup
        service = TransformService(registry, drift=True, drift_sample=8)
        service.transform("pfr", X[:100])
        assert service.drift_status()["models"]["pfr@1"]["count"] <= 8

    def test_exact_model_reports_no_window(self, setup, rng):
        # Exact fits carry no landmark coordinates: drift accounting is
        # unavailable, transforms still serve, snapshot is None.
        registry, _, _ = setup
        service = TransformService(registry, drift=True)
        service.transform("pfr", rng.normal(size=(8, 5)))
        assert service.drift_status()["models"]["pfr@1"] is None

    def test_scorer_errors_never_break_serving(self, landmark_setup, rng):
        registry, _, X = landmark_setup
        service = TransformService(registry, drift=True)
        service.transform("pfr", X[:4])  # materialize the served model
        served = service._models[("pfr", 1)]

        def boom(X_rows, Z_rows=None):
            raise RuntimeError("scorer exploded")

        served.scorer = boom
        # Fresh rows: only computed rows are scored, cache hits are not.
        Z = service.transform("pfr", X[4:8])
        assert np.isfinite(Z).all()
        assert service.metrics.counter_value(
            "serving.drift_errors", model="pfr@1"
        ) >= 1

    def test_invalid_drift_parameters(self, landmark_setup):
        registry, _, _ = landmark_setup
        with pytest.raises(ValidationError, match="drift_sample"):
            TransformService(registry, drift=True, drift_sample=0)
        with pytest.raises(ValidationError, match="drift_floor must be finite"):
            TransformService(registry, drift=True, drift_floor=float("nan"))
