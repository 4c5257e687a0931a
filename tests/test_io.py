"""Tests for repro.io — pickle-free model persistence."""

import json

import numpy as np
import pytest

from repro import (
    IFair,
    LFR,
    PFR,
    EqualizedOddsPostProcessor,
    MaskedRepresentation,
    SideInformationAugmenter,
    __version__,
    load_model,
    save_model,
)
from repro.core import KernelPFR
from repro.exceptions import ValidationError
from repro.graphs import pairwise_judgment_graph
from repro.io import _REGISTRY, read_header
from repro.ml import LogisticRegression, StandardScaler
from repro.serving import ModelRegistry, TransformService


@pytest.fixture
def fitted_models(rng):
    X = rng.normal(size=(40, 4))
    y = (X[:, 0] > 0).astype(int)
    WF = pairwise_judgment_graph([(0, 1), (5, 9)], n=40)
    return {
        "pfr": PFR(n_components=2, gamma=0.7, n_neighbors=4).fit(X, WF),
        "kpfr": KernelPFR(n_components=2, kernel="rbf", n_neighbors=4).fit(X, WF),
        "lr": LogisticRegression(C=3.0).fit(X, y),
        "scaler": StandardScaler().fit(X),
        "X": X,
    }


class TestRoundtrip:
    def test_pfr(self, fitted_models, tmp_path):
        model = fitted_models["pfr"]
        X = fitted_models["X"]
        path = save_model(model, tmp_path / "pfr")
        restored = load_model(path)
        np.testing.assert_allclose(restored.transform(X), model.transform(X))
        assert restored.gamma == 0.7

    def test_kernel_pfr(self, fitted_models, tmp_path):
        model = fitted_models["kpfr"]
        X = fitted_models["X"]
        path = save_model(model, tmp_path / "kpfr.npz")
        restored = load_model(path)
        np.testing.assert_allclose(
            restored.transform(X), model.transform(X), atol=1e-12
        )

    @pytest.mark.parametrize("key", ["pfr", "kpfr"])
    def test_plan_digests_survive_round_trip(self, fitted_models, tmp_path, key):
        # Provenance digests must survive persistence so that registering a
        # loaded model keeps its fit-plan audit trail.
        model = fitted_models[key]
        restored = load_model(save_model(model, tmp_path / key))
        assert restored.plan_digests_ == model.plan_digests_

    def test_legacy_artifact_without_digests_loads(self, fitted_models, tmp_path):
        model = fitted_models["pfr"]
        digests = model.plan_digests_
        try:
            del model.plan_digests_
            restored = load_model(save_model(model, tmp_path / "old"))
        finally:
            model.plan_digests_ = digests
        assert not hasattr(restored, "plan_digests_")

    def test_logistic_regression(self, fitted_models, tmp_path):
        model = fitted_models["lr"]
        X = fitted_models["X"]
        restored = load_model(save_model(model, tmp_path / "lr"))
        np.testing.assert_allclose(
            restored.predict_proba(X), model.predict_proba(X)
        )
        assert restored.C == 3.0

    def test_standard_scaler(self, fitted_models, tmp_path):
        model = fitted_models["scaler"]
        X = fitted_models["X"]
        restored = load_model(save_model(model, tmp_path / "scaler"))
        np.testing.assert_allclose(restored.transform(X), model.transform(X))

    def test_full_deployment_pair(self, fitted_models, tmp_path):
        """Representation + classifier round-trip: the deployable artifact."""
        X = fitted_models["X"]
        pfr = fitted_models["pfr"]
        Z = pfr.transform(X)
        clf = LogisticRegression().fit(Z, (Z[:, 0] > 0).astype(int))
        p1 = save_model(pfr, tmp_path / "representation")
        p2 = save_model(clf, tmp_path / "classifier")
        predictions = load_model(p2).predict(load_model(p1).transform(X))
        np.testing.assert_array_equal(predictions, clf.predict(Z))

    def test_npz_suffix_added(self, fitted_models, tmp_path):
        path = save_model(fitted_models["scaler"], tmp_path / "m")
        assert path.suffix == ".npz"

    def test_kernel_pfr_linear_kernel_none_bandwidth(self, rng, tmp_path):
        # linear kernels leave _fitted_bandwidth as None — the None-marker
        # round-trip path.
        X = rng.normal(size=(25, 3))
        WF = pairwise_judgment_graph([(0, 1)], n=25)
        model = KernelPFR(n_components=2, kernel="linear").fit(X, WF)
        restored = load_model(save_model(model, tmp_path / "linear"))
        assert restored._fitted_bandwidth is None
        np.testing.assert_allclose(restored.transform(X), model.transform(X))


# Builders for every fitted estimator class exposed in repro.__all__; each
# returns (fitted_model, probe) where probe(model) -> ndarray exercises the
# fitted state so round-trip equality is behavioural, not just structural.
def _build_pfr(rng, X, y, s, WF):
    return PFR(n_components=2, gamma=0.7, n_neighbors=4).fit(X, WF), None


def _build_kernel_pfr(rng, X, y, s, WF):
    return KernelPFR(n_components=2, kernel="rbf", n_neighbors=4).fit(X, WF), None


def _build_ifair(rng, X, y, s, WF):
    model = IFair(n_prototypes=3, max_iter=15, protected_columns=[3]).fit(X)
    return model, None


def _build_lfr(rng, X, y, s, WF):
    return LFR(n_prototypes=3, max_iter=15).fit(X, y, s=s), None


def _build_masked(rng, X, y, s, WF):
    return MaskedRepresentation(protected_columns=[0, 3]).fit(X), None


def _build_augmenter(rng, X, y, s, WF):
    side = rng.random(len(X))
    side[::5] = np.nan
    return SideInformationAugmenter(side_information=side).fit(X), None


def _build_equalized_odds(rng, X, y, s, WF):
    y_pred = (X[:, 0] > 0).astype(int)
    model = EqualizedOddsPostProcessor(seed=3).fit(y, y_pred, s)
    return model, lambda m: m.predict_proba_positive(y_pred, s)


_ALL_ESTIMATOR_BUILDERS = {
    "PFR": _build_pfr,
    "KernelPFR": _build_kernel_pfr,
    "IFair": _build_ifair,
    "LFR": _build_lfr,
    "MaskedRepresentation": _build_masked,
    "SideInformationAugmenter": _build_augmenter,
    "EqualizedOddsPostProcessor": _build_equalized_odds,
}


class TestAllPublicEstimatorsRoundTrip:
    """Every fitted estimator class in repro.__all__ must survive save/load."""

    @pytest.fixture
    def problem(self, rng):
        X = rng.normal(size=(50, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=50) > 0).astype(int)
        s = rng.integers(0, 2, 50)
        # Both groups need both classes for the Hardt post-processor.
        y[:4], s[:4] = [0, 1, 0, 1], [0, 0, 1, 1]
        WF = pairwise_judgment_graph([(0, 1), (5, 9), (10, 30)], n=50)
        return X, y, s, WF

    @pytest.mark.parametrize("name", sorted(_ALL_ESTIMATOR_BUILDERS))
    def test_round_trip(self, name, problem, rng, tmp_path):
        X, y, s, WF = problem
        model, probe = _ALL_ESTIMATOR_BUILDERS[name](rng, X, y, s, WF)
        restored = load_model(save_model(model, tmp_path / name))
        assert type(restored) is type(model)
        for key, value in model.get_params().items():
            restored_value = restored.get_params()[key]
            if isinstance(value, np.ndarray):
                np.testing.assert_allclose(restored_value, value)
            elif isinstance(value, (list, tuple)):
                assert list(restored_value) == list(value)
            else:
                assert restored_value == value
        if probe is None:
            np.testing.assert_allclose(
                restored.transform(X), model.transform(X), atol=1e-12
            )
        else:
            np.testing.assert_allclose(probe(restored), probe(model))

    def test_every_public_estimator_is_covered(self):
        import repro
        from repro.ml.base import BaseEstimator

        public_estimators = {
            name
            for name in repro.__all__
            if isinstance(getattr(repro, name), type)
            and issubclass(getattr(repro, name), BaseEstimator)
        }
        assert public_estimators == set(_ALL_ESTIMATOR_BUILDERS)
        assert public_estimators <= set(_REGISTRY)


def _rewrite_header(path, mutate):
    """Load an artifact, mutate its JSON header, and write it back."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    header = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    mutate(header)
    np.savez(path, header=np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    ), **arrays)


class TestVersionStamp:
    @pytest.fixture
    def saved(self, fitted_models, tmp_path):
        return save_model(fitted_models["scaler"], tmp_path / "m")

    def test_header_carries_library_version(self, saved):
        header = read_header(saved)
        assert header["library_version"] == __version__
        assert header["model_type"] == "StandardScaler"
        assert header["format_version"] == 2

    def test_same_major_loads(self, saved):
        major = __version__.split(".", 1)[0]
        _rewrite_header(
            saved, lambda h: h.update(library_version=f"{major}.99.7")
        )
        assert load_model(saved) is not None

    def test_incompatible_major_rejected(self, saved):
        _rewrite_header(saved, lambda h: h.update(library_version="999.0.0"))
        with pytest.raises(ValidationError, match="incompatible"):
            load_model(saved)

    def test_missing_stamp_in_v2_rejected(self, saved):
        _rewrite_header(saved, lambda h: h.pop("library_version"))
        with pytest.raises(ValidationError, match="lacks a library_version"):
            load_model(saved)

    def test_legacy_format1_still_loads(self, saved, fitted_models):
        def to_v1(header):
            header["format_version"] = 1
            header.pop("library_version")

        _rewrite_header(saved, to_v1)
        restored = load_model(saved)
        X = fitted_models["X"]
        np.testing.assert_allclose(
            restored.transform(X), fitted_models["scaler"].transform(X)
        )

    def test_read_header_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            read_header(tmp_path / "none.npz")

    def test_array_params_stay_out_of_the_header(self, rng, tmp_path):
        # Training-set-sized hyper-parameters are stored as npz arrays so
        # read_header stays O(1) in the training-set size.
        X = rng.normal(size=(100, 3))
        model = SideInformationAugmenter(
            side_information=rng.random(100)
        ).fit(X)
        path = save_model(model, tmp_path / "augmenter")
        header = read_header(path)
        assert "side_information" not in header["params"]
        restored = load_model(path)
        np.testing.assert_allclose(
            restored.side_information, model.side_information
        )


# The four numeric options every 1.1.0 PFR/KernelPFR header records, at
# the defaults that selected the one path fits still take.
_V110_NUMERIC_PARAMS = {
    "PFR": {"eig_solver": "auto", "knn_backend": "exact", "knn_seed": 0,
            "dtype": "float64"},
    "KernelPFR": {"eig_solver": "dense", "knn_backend": "exact", "knn_seed": 0,
                  "dtype": "float64"},
}


def _with_v110_params(path, **overrides):
    """Give an artifact's header the 1.1.0 numeric keys (plus overrides)."""

    def mutate(header):
        header["params"].update(_V110_NUMERIC_PARAMS[header["model_type"]])
        header["params"].update(overrides)

    _rewrite_header(path, mutate)
    return path


class TestRetiredNumericOptions:
    @pytest.fixture
    def models(self, rng):
        X = rng.normal(size=(60, 4))
        WF = pairwise_judgment_graph([(0, 1), (5, 9), (12, 30), (40, 41)], n=60)
        models = {
            "pfr": PFR(n_components=2, gamma=0.7, n_neighbors=4),
            "kpfr": KernelPFR(n_components=2, n_neighbors=4),
            "nystrom": KernelPFR(
                n_components=2, n_neighbors=4, extension="nystrom", landmarks=20
            ),
        }
        # Unseen rows: transforming X itself would take K(X_fit_, X_fit_)'s
        # symmetric product, which a loaded copy of X_fit_ does not.
        rows = rng.normal(size=(25, 4))
        return rows, {name: model.fit(X, WF) for name, model in models.items()}

    @pytest.mark.parametrize("name", ["pfr", "kpfr", "nystrom"])
    def test_v110_header_loads_and_serves_same_rows(self, models, tmp_path, name):
        X, fitted = models
        model = fitted[name]
        path = _with_v110_params(save_model(model, tmp_path / name))
        assert set(_V110_NUMERIC_PARAMS["PFR"]) <= set(read_header(path)["params"])
        expected = model.transform(X)
        np.testing.assert_array_equal(load_model(path).transform(X), expected)

        registry = ModelRegistry(tmp_path / "registry")
        record = registry.register(name, model)
        _with_v110_params(record.path)
        fresh = ModelRegistry(tmp_path / "registry")
        assert fresh.resolve(f"{name}@latest") == (name, 1)
        np.testing.assert_array_equal(
            fresh.load(f"{name}@latest").transform(X), expected
        )
        np.testing.assert_array_equal(
            TransformService(fresh).transform(f"{name}@latest", X), expected
        )

    @pytest.mark.parametrize(
        "key,value",
        [
            ("knn_backend", "lsh"),
            ("knn_backend", "blocked"),
            ("dtype", "float32"),
            ("eig_solver", "sparse"),
            ("eig_solver", "lobpcg"),
            ("eig_solver", "randomized"),
        ],
    )
    @pytest.mark.parametrize("name", ["pfr", "nystrom"])
    def test_retired_value_refused(self, models, tmp_path, name, key, value):
        _, fitted = models
        path = _with_v110_params(
            save_model(fitted[name], tmp_path / name), **{key: value}
        )
        with pytest.raises(ValidationError, match=f"{key}={value!r}"):
            load_model(path)

    def test_retired_value_refused_through_registry(self, models, tmp_path):
        _, fitted = models
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.register("kpfr", fitted["kpfr"])
        _with_v110_params(record.path, dtype="float32")
        with pytest.raises(ValidationError, match="dtype='float32'"):
            registry.load("kpfr@latest")


class TestErrors:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(Exception):
            save_model(PFR(), tmp_path / "x")

    def test_unsupported_type_rejected(self, tmp_path):
        from repro.ml import BaseEstimator

        class Unregistered(BaseEstimator):
            pass

        assert "Unregistered" not in _REGISTRY
        with pytest.raises(ValidationError, match="cannot save"):
            save_model(Unregistered(), tmp_path / "x")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_model(tmp_path / "missing.npz")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(ValidationError, match="not a repro model"):
            load_model(path)

    def test_non_npz_bytes_rejected(self, tmp_path):
        path = tmp_path / "fake.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ValidationError, match="not a repro model"):
            load_model(path)
        with pytest.raises(ValidationError, match="not a repro model"):
            read_header(path)

    def test_bare_npy_payload_rejected(self, tmp_path):
        path = tmp_path / "array.npz"
        with open(path, "wb") as handle:
            np.save(handle, np.arange(3))
        with pytest.raises(ValidationError, match="not an npz archive"):
            load_model(path)
        with pytest.raises(ValidationError, match="not an npz archive"):
            read_header(path)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "listheader.npz"
        np.savez(path, header=np.frombuffer(b"[1, 2]", dtype=np.uint8))
        with pytest.raises(ValidationError, match="not a JSON object"):
            load_model(path)

    def test_truncated_zip_rejected(self, tmp_path, fitted_models):
        good = save_model(fitted_models["scaler"], tmp_path / "ok")
        bad = tmp_path / "truncated.npz"
        bad.write_bytes(good.read_bytes()[:40])  # keeps the PK magic
        with pytest.raises(ValidationError, match="not a repro model"):
            load_model(bad)

    def test_missing_required_attribute_rejected(self, tmp_path, fitted_models):
        # Rebuild a valid PFR artifact without its components_ array: the
        # load must fail loudly instead of returning a half-fitted model
        # that only breaks later at transform time. Optional attributes
        # (landmark_indices_, introduced after format v2 shipped) may be
        # absent — that is the backward-compatibility case.
        good = save_model(fitted_models["pfr"], tmp_path / "good")
        with np.load(good) as archive:
            arrays = {
                key: archive[key]
                for key in archive.files
                if key not in ("attr__components_", "header")
            }
            header = archive["header"]
        bad = tmp_path / "gutted.npz"
        np.savez(bad, header=header, **arrays)
        with pytest.raises(ValidationError, match="missing fitted attribute"):
            load_model(bad)

        no_landmarks = tmp_path / "pre_landmark.npz"
        with np.load(good) as archive:
            arrays = {
                key: archive[key]
                for key in archive.files
                if "landmark_indices_" not in key and key != "header"
            }
            header = archive["header"]
        np.savez(no_landmarks, header=header, **arrays)
        loaded = load_model(no_landmarks)
        assert getattr(loaded, "landmark_indices_", None) is None


class TestCrashSafeWrites:
    """save_model must be atomic: a crash mid-write leaves either the old
    artifact or nothing — never a truncated archive."""

    @staticmethod
    def _fitted_scaler(offset=0.0):
        from repro.ml import StandardScaler

        rng = np.random.default_rng(0)
        return StandardScaler().fit(rng.normal(size=(20, 3)) + offset)

    def test_failure_before_rename_leaves_nothing(self, tmp_path, monkeypatch):
        import repro.io as io_mod

        target = tmp_path / "model.npz"
        monkeypatch.setattr(
            io_mod.os, "replace",
            lambda src, dst: (_ for _ in ()).throw(
                OSError("simulated crash mid-write")
            ),
        )
        with pytest.raises(OSError, match="simulated"):
            save_model(self._fitted_scaler(), target)
        monkeypatch.undo()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file cleaned up

    def test_failure_preserves_previous_artifact(self, tmp_path, monkeypatch):
        import repro.io as io_mod

        target = tmp_path / "model.npz"
        save_model(self._fitted_scaler(offset=0.0), target)
        before = load_model(target).mean_.copy()

        monkeypatch.setattr(
            io_mod.os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            save_model(self._fitted_scaler(offset=5.0), target)
        monkeypatch.undo()
        # The original artifact is intact and still loads cleanly.
        np.testing.assert_array_equal(load_model(target).mean_, before)

    def test_artifact_honors_umask(self, tmp_path):
        """atomic_write must not leave artifacts with mkstemp's 0600 —
        shared ledgers/registries need group/other read under the umask."""
        import os as _os
        import stat

        target = tmp_path / "model.npz"
        save_model(self._fitted_scaler(), target)
        umask = _os.umask(0)
        _os.umask(umask)
        expected = 0o666 & ~umask
        assert stat.S_IMODE(target.stat().st_mode) == expected

    def test_write_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        """Regression: each write set the umask to 0 and back, a
        process-wide flip that races file creation on other threads."""
        import os as _os
        import stat

        from repro.io import atomic_write

        umask = _os.umask(0)
        _os.umask(umask)

        def no_umask(mask):
            raise AssertionError("atomic_write touched the process umask")

        monkeypatch.setattr(_os, "umask", no_umask)
        target = tmp_path / "entry.json"
        atomic_write(target, lambda handle: handle.write("{}"), mode="w")
        assert target.read_text() == "{}"
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_savez_failure_cleans_temp(self, tmp_path, monkeypatch):
        import repro.io as io_mod

        def exploding_savez(file, **arrays):
            file.write(b"partial garbage")
            raise RuntimeError("disk full")

        monkeypatch.setattr(io_mod.np, "savez", exploding_savez)
        with pytest.raises(RuntimeError, match="disk full"):
            save_model(self._fitted_scaler(), tmp_path / "model.npz")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_registry_register_is_crash_safe(self, tmp_path, monkeypatch):
        """A crashed register leaves no artifact AND no manifest entry."""
        import repro.io as io_mod
        from repro.serving import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        registry.register("scaler", self._fitted_scaler())

        monkeypatch.setattr(
            io_mod.os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            registry.register("scaler", self._fitted_scaler(offset=1.0))
        monkeypatch.undo()
        # Version 2 was never recorded; v1 still resolves and loads.
        records = ModelRegistry(tmp_path / "registry").versions("scaler")
        assert [r.version for r in records] == [1]
        assert load_model(records[0].path) is not None
        model_dir = tmp_path / "registry" / "scaler"
        assert not (model_dir / "v0002.npz").exists()
        assert list(model_dir.glob("*.tmp")) == []
