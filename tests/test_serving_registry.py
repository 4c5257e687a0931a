"""Tests for repro.serving.registry — the versioned on-disk model registry."""

import json

import numpy as np
import pytest

from repro import PFR, __version__
from repro.exceptions import ModelNotFoundError, ValidationError
from repro.graphs import pairwise_judgment_graph
from repro.ml import StandardScaler
from repro.serving import ModelRegistry


@pytest.fixture
def fitted_pfr(rng):
    X = rng.normal(size=(40, 5))
    WF = pairwise_judgment_graph([(0, 1), (4, 9)], n=40)
    return PFR(n_components=2, gamma=0.6, n_neighbors=4).fit(X, WF), X


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestRegister:
    def test_versions_increment(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        assert registry.register("pfr", model).version == 1
        assert registry.register("pfr", model).version == 2
        assert [r.version for r in registry.versions("pfr")] == [1, 2]

    def test_record_fields(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        record = registry.register("pfr", model)
        assert record.name == "pfr"
        assert record.model_type == "PFR"
        assert record.library_version == __version__
        assert record.n_features_in == 5
        assert record.params["gamma"] == 0.6
        assert record.spec == "pfr@1"
        assert record.is_latest

    def test_stage_digests_recorded(self, registry, fitted_pfr):
        model, X = fitted_pfr
        record = registry.register("pfr", model)
        assert set(record.stage_digests) == {
            "graph", "laplacian", "projection", "solve"
        }
        assert record.stage_digests == model.plan_digests_
        # The digests survive the manifest round trip and pin provenance:
        # the same training inputs + structure reproduce them exactly.
        reread = registry.record("pfr", record.version)
        assert reread.stage_digests == record.stage_digests
        refit = PFR(n_components=2, gamma=0.6, n_neighbors=4).fit(
            X, pairwise_judgment_graph([(0, 1), (4, 9)], n=40)
        )
        assert refit.plan_digests_ == record.stage_digests

    def test_stage_digests_empty_for_non_plan_models(self, registry, rng):
        scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
        record = registry.register("scaler", scaler)
        assert record.stage_digests == {}

    def test_register_promotes_by_default(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        registry.register("pfr", model)
        assert registry.resolve("pfr") == ("pfr", 2)

    def test_no_promote_keeps_latest(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        record = registry.register("pfr", model, promote=False)
        assert not record.is_latest
        assert registry.resolve("pfr@latest") == ("pfr", 1)

    def test_first_register_no_promote_stays_unpromoted(self, registry, fitted_pfr):
        # The canary workflow: --no-promote on a fresh name must not make
        # the unvalidated version servable via @latest.
        model, _ = fitted_pfr
        record = registry.register("pfr", model, promote=False)
        assert not record.is_latest
        with pytest.raises(ValidationError, match="no promoted version"):
            registry.resolve("pfr")
        # ...but the pinned spec and the listing still see it.
        assert registry.resolve("pfr@1") == ("pfr", 1)
        listed = registry.list_models()
        assert [(r.name, r.version, r.is_latest) for r in listed] == [
            ("pfr", 1, False)
        ]
        # Promotion makes it live.
        registry.promote("pfr", 1)
        assert registry.resolve("pfr") == ("pfr", 1)

    def test_bad_names_rejected(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        for bad in ("", "a@b", "with space", "-leading", ".hidden"):
            with pytest.raises(ValidationError, match="bad model name"):
                registry.register(bad, model)

    def test_unfitted_model_rejected(self, registry):
        with pytest.raises(Exception):
            registry.register("pfr", PFR())

    def test_excluded_columns_recorded(self, registry, rng):
        X = rng.normal(size=(30, 4))
        WF = pairwise_judgment_graph([(0, 1)], n=30)
        model = PFR(n_components=2, n_neighbors=3, exclude_columns=[3]).fit(X, WF)
        record = registry.register("pfr-excl", model)
        assert record.excluded_columns == [3]


class TestResolveAndLoad:
    def test_resolve_forms(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        registry.register("pfr", model)
        assert registry.resolve("pfr") == ("pfr", 2)
        assert registry.resolve("pfr@latest") == ("pfr", 2)
        assert registry.resolve("pfr@1") == ("pfr", 1)

    def test_not_found_is_typed(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        registry.register("canary", model, promote=False)
        for spec, fragment in (
            ("ghost", "unknown model"),
            ("pfr@7", "has no version"),
            ("canary", "no promoted version"),
        ):
            with pytest.raises(ModelNotFoundError, match=fragment):
                registry.resolve(spec)
        # A malformed selector is bad input, not a missing model.
        with pytest.raises(ValidationError) as excinfo:
            registry.resolve("pfr@one")
        assert not isinstance(excinfo.value, ModelNotFoundError)

    def test_unknown_name(self, registry):
        with pytest.raises(ValidationError, match="unknown model"):
            registry.resolve("ghost")

    def test_unknown_version(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        with pytest.raises(ValidationError, match="no version 9"):
            registry.resolve("pfr@9")

    def test_bad_selector(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        with pytest.raises(ValidationError, match="bad version selector"):
            registry.resolve("pfr@newest")

    def test_load_round_trips(self, registry, fitted_pfr):
        model, X = fitted_pfr
        registry.register("pfr", model)
        restored = registry.load("pfr@1")
        np.testing.assert_allclose(restored.transform(X), model.transform(X))


class TestPromoteAndList:
    def test_promote_rolls_back(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        registry.register("pfr", model)
        record = registry.promote("pfr", 1)
        assert record.is_latest
        assert registry.resolve("pfr") == ("pfr", 1)

    def test_promote_unknown_version(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        with pytest.raises(ValidationError, match="no version 7"):
            registry.promote("pfr", 7)

    def test_latest_cache_tracks_manifest_rewrites(self, registry, fitted_pfr):
        # resolve("name") stats the manifest and only re-parses on change;
        # a promotion (manifest rewrite) must invalidate the cached value.
        model, _ = fitted_pfr
        registry.register("pfr", model)
        registry.register("pfr", model)
        assert registry.resolve("pfr") == ("pfr", 2)
        assert registry.resolve("pfr") == ("pfr", 2)  # served from cache
        registry.promote("pfr", 1)
        assert registry.resolve("pfr") == ("pfr", 1)

    def test_external_manifest_rewrite_visible(self, registry, fitted_pfr):
        # Another process promoting through its own ModelRegistry instance
        # must be picked up by this instance's stat-based cache.
        model, _ = fitted_pfr
        registry.register("pfr", model)
        registry.register("pfr", model)
        assert registry.resolve("pfr") == ("pfr", 2)
        other = ModelRegistry(registry.root)
        other.promote("pfr", 1)
        assert registry.resolve("pfr") == ("pfr", 1)

    def test_list_models(self, registry, fitted_pfr, rng):
        model, _ = fitted_pfr
        registry.register("pfr-b", model)
        registry.register("pfr-a", model)
        scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
        registry.register("scaler", scaler)
        names = [record.name for record in registry.list_models()]
        assert names == ["pfr-a", "pfr-b", "scaler"]
        types = {r.name: r.model_type for r in registry.list_models()}
        assert types["scaler"] == "StandardScaler"

    def test_list_empty_registry(self, tmp_path):
        assert ModelRegistry(tmp_path / "nothing").list_models() == []


class TestManifest:
    def test_manifest_is_valid_json_with_schema(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        record = registry.register("pfr", model)
        manifest_path = registry.root / "pfr" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["latest"] == 1
        entry = manifest["versions"]["1"]
        assert entry["model_type"] == "PFR"
        assert entry["library_version"] == __version__
        assert entry["n_features_in"] == 5
        assert entry["file"] == "v0001.npz"
        assert (registry.root / "pfr" / entry["file"]).exists()
        assert record.path.endswith("v0001.npz")

    def test_large_array_params_summarized_not_inlined(self, registry, rng):
        from repro import SideInformationAugmenter

        X = rng.normal(size=(200, 3))
        model = SideInformationAugmenter(
            side_information=rng.random(200)
        ).fit(X)
        record = registry.register("augmenter", model)
        assert record.params["side_information"] == "<array shape=(200,)>"
        restored = registry.load("augmenter")
        np.testing.assert_allclose(restored.transform(X), model.transform(X))

    def test_corrupt_manifest_raises(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        (registry.root / "pfr" / "manifest.json").write_text("{not json")
        with pytest.raises(ValidationError, match="corrupt registry manifest"):
            registry.resolve("pfr")


class TestPromoteRollbackUnderReaders:
    """Lifecycle rollback = re-promoting the previous version while
    concurrent readers follow @latest (ISSUE 9 satellite: the registry
    must never expose a torn manifest mid-promote)."""

    def test_latest_is_always_a_complete_version(self, registry, fitted_pfr):
        import threading
        import time

        model, X = fitted_pfr
        registry.register("pfr", model)  # v1
        registry.register("pfr", model)  # v2, latest
        stop = threading.Event()
        errors = []
        seen = set()

        def reader():
            try:
                while not stop.is_set():
                    name, version = registry.resolve("pfr@latest")
                    assert name == "pfr"
                    seen.add(version)
                    # The resolved version must be fully materialized:
                    # its record loads and its artifact transforms.
                    record = registry.record("pfr", version)
                    assert record.version == version
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            # Promote/rollback churn: v2 -> v1 (rollback) -> v2 -> ...,
            # 30 flips and on until the readers have seen both versions
            # (a loaded host can starve them), bounded by a deadline.
            deadline = time.monotonic() + 60
            flip = 0
            while flip < 30 or (len(seen) < 2 and time.monotonic() < deadline):
                registry.promote("pfr", 1 + flip % 2)
                flip += 1
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not errors
        assert seen <= {1, 2} and len(seen) == 2

    def test_promote_returns_latest_record(self, registry, fitted_pfr):
        model, _ = fitted_pfr
        registry.register("pfr", model)
        registry.register("pfr", model)
        rollback = registry.promote("pfr", 1)
        assert rollback.version == 1 and rollback.is_latest
        assert registry.resolve("pfr@latest") == ("pfr", 1)
        # The regressed version stays on disk for audit.
        assert [r.version for r in registry.versions("pfr")] == [1, 2]
