"""Raw-speed pass guarantees: seed parity, approximate solvers, float32.

Three contracts, in descending order of strictness:

1. **Default-path lockdown** — with ``knn_backend="exact"``, the default
   ``eig_solver`` and ``dtype="float64"``, stage digests and fitted
   arrays are *byte-identical* to the values captured before the
   raw-speed pass landed. Any drift here is a reproducibility break.
2. **Approximate solvers** — ``lobpcg``/``randomized`` fits must reach
   ``embedding_fidelity >= 0.99`` against the dense solve and must
   change the solve digest (they are different numerics, provenance has
   to say so).
3. **float32 pipeline** — opt-in ``dtype="float32"`` flows end to end
   (no silent float64 upcast), reaches fidelity >= 0.99, changes the
   digests, and round-trips through io and the serving registry.
"""

import hashlib

import numpy as np
import pytest

from repro.core import PFR, KernelPFR, LandmarkPlan, fit_path
from repro.core.approx import embedding_fidelity
from repro.exceptions import ValidationError
from repro.graphs import between_group_quantile_graph, knn_graph
from repro.io import load_model, read_header, save_model
from repro.serving import ModelRegistry

# Captured from the seed revision (commit f2fc859) on the baseline
# problem below. These values must never change for default-path fits.
SEED_KNN_SHA = "30320880dbeeef2b8aba82b86f84a8e358305635c8c81f20d1e764b117e357b0"
SEED_PFR_DIGESTS = {
    "graph": "a398c7f04f5598d5995a4c7792835c55d960ae5701a50c9a44ea50df60034b84",
    "laplacian": "ff9e29cab79c81558e268fbc8d437c6d5bd4607482ed12bc50c9e2371a296ca9",
    "projection": "f1a34235d5ce2841809b764a65781fd29e83506d4cfa9d366817d0a483689cd0",
    "solve": "463c66a5826c398f8c0f78224131f657ef022fbd68014cd59c685019b0f5ed6d",
}
SEED_PFR_COMPONENTS_SHA = (
    "59a62104d2712a53bd4347982bcb738484bba7f98a1fead8fcceac7f5e11996b"
)
SEED_KPFR_GRAPH = "b3879fadf7c21ab77265cd8a98b89f96a2a47114b648fc113b521515a8566047"
SEED_KPFR_SOLVE = "868da984bbcebf588852a32ebedef244100e459aad67ba87f2bdb4f36751b186"
SEED_KPFR_ALPHAS_SHA = (
    "d4df3379760d61c9855333cd06725489d2bcbde8a91a93957025face5aa3db7e"
)
SEED_NYSTROM_DIGESTS = {
    "landmarks": "9f9dfd715f83805a481842f20fe86540e95d3bd4ef3ea724981491227869e081",
    "graph": "e1ae71c86f836efe718d0f3b49a6dfc84fc5b6b8305873e8535aa9bb8c41e456",
    "laplacian": "aedb55798f7fdb4ce88261d4d4288324d5f06fb5eca93d601a01caa0dd05c664",
    "projection": "13f8c7f19dc992543c8da30b274677e9a3856fdddb9a04ede6efaba72b5174b6",
    "solve": "c818c400893c6cebe6dd271ffa72604c751ba350ade0e7acb93413c0626654d3",
}
SEED_NYSTROM_COMPONENTS_SHA = (
    "85b1d6369f90799eb0cdcea8026677fa5a8dd5042950d75966f80b811e655f69"
)

# A refreshed child LandmarkPlan (the baseline problem below, 40 landmarks,
# then 40 drifted rows folded in by refresh()), captured before the
# refresh-path median was rewritten: stage digests, the refit's
# components and float.hex of the extension bandwidth. ``exclude``
# takes the graph median over a non-contiguous column subset and the
# extension median over a contiguous copy of it.
REFRESH_GOLDENS = {
    "float64": {
        "params": {},
        "digests": {
            "landmarks": "e35ab8ccf0f323396df990f8e5c778436e282298aa14eeb30e4673b1e5e9cedd",
            "extend": "4b78279b49341e6ee0c88c1e7cee9549362b68f5d9203e4c85e8528dfaaca71e",
            "graph": "db8c842c096a44173f799b80f4f1dc1e94140c53b4fc1b9e6bc1232fe09db9b3",
            "laplacian": "fd5b6b4d170506775f567874138e01e1d9b0c28bfe32cf22aa2285519a62ee6b",
            "projection": "1278fde7312516ac69c499fcdf2fbc118972f8d952e74c0ecbeef78a7029ea85",
            "solve": "bb4fa64b7c7eb9c027fafc4a51673154c393d6ebfe59e838721067a13f7e6a6c",
        },
        "components": "c4792731ae8b6e81a0aa8bf48765b273e812dc02ba40181eb715815913677228",
        "bandwidth": "0x1.c1a8dcc9038c2p+3",
    },
    "exclude": {
        "params": {"exclude_columns": [5]},
        "digests": {
            "landmarks": "bc85136e1d113c908624687b359f26e49588fac471986285b11ead1244e9e834",
            "extend": "508c15e138ecf4bec2ab034e7bd04bb7d8f3bf4c649d1b3218a147cc45cd3b90",
            "graph": "1c3c645fa4d69f9599b917e738bfcdcf7d72e0ba7e62544eee4142384c2d084f",
            "laplacian": "0087bcbb2fa268340acc7e191785835727119d766a290b3989b99e8a151fecf5",
            "projection": "9c7a56face008ae5facefa604d388aba832a0ea21d2e6594ac7d1237664ad755",
            "solve": "65a4f60c91efd2c5dec58068ea6b040c186d5daac8dbb1bf6e43668ad392be59",
        },
        "components": "7e1c16ed807ba13c8dbe2911276c4b47036597373b2c63ae3ca86fb04d21e789",
        "bandwidth": "0x1.9ed5e1a17d831p+3",
    },
    "float32": {
        "params": {"dtype": "float32"},
        "digests": {
            "landmarks": "47b132356a225d0a5c7b41abf3241296c934d458717444fec76dfcd6c677860c",
            "extend": "229b835924de5c5c33b9d5734316a31db97370522573e7f86313fb01f03bd8ff",
            "graph": "49be9d914652031317431ecf9bf4a5b556873220f289d31e02760d49bbcd1646",
            "laplacian": "d2e9f646615d3f3002d6eabaebc34383aad57988cc28b29220278b8088490035",
            "projection": "c4b69693f2b58d05f4b710104d8b4fdaa9aa0bae037b9ccc137087dca3916a06",
            "solve": "54731ec138498ab7a041eeebd04859549520c0f88e3e874811fea5ee991c66d9",
        },
        "components": "1228d73675624065114f193bef6e7e573e25d109822d5eee3dc638a307043910",
        "bandwidth": "0x1.c1a8dc0000000p+3",
    },
}


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def baseline_problem():
    """The fixed problem every seed digest above was captured on."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 6))
    groups = np.repeat([0, 1], 60)
    scores = rng.random(120)
    WF = between_group_quantile_graph(scores, groups, n_quantiles=4)
    return X, WF


@pytest.fixture(scope="module")
def baseline():
    return baseline_problem()


def _pfr(**kw):
    base = dict(n_components=3, gamma=0.5, n_neighbors=5, exclude_columns=[5])
    base.update(kw)
    return PFR(**base)


class TestSeedParity:
    def test_knn_graph_bytes(self, baseline):
        X, _ = baseline
        W = knn_graph(X, n_neighbors=5, exclude=[5])
        digest = hashlib.sha256(
            W.data.tobytes() + W.indices.tobytes() + W.indptr.tobytes()
        ).hexdigest()
        assert digest == SEED_KNN_SHA

    def test_pfr_digests_and_components(self, baseline):
        X, WF = baseline
        m = _pfr().fit(X, WF)
        assert m.plan_digests_ == SEED_PFR_DIGESTS
        assert _sha(m.components_) == SEED_PFR_COMPONENTS_SHA

    def test_kernel_pfr_digests_and_alphas(self, baseline):
        X, WF = baseline
        km = KernelPFR(n_components=3, gamma=0.25, n_neighbors=5).fit(X, WF)
        assert km.plan_digests_["graph"] == SEED_KPFR_GRAPH
        assert km.plan_digests_["solve"] == SEED_KPFR_SOLVE
        assert _sha(km.alphas_) == SEED_KPFR_ALPHAS_SHA

    def test_nystrom_digests_and_components(self, baseline):
        X, WF = baseline
        nm = _pfr(extension="nystrom", landmarks=40, landmark_seed=3).fit(X, WF)
        assert nm.plan_digests_ == SEED_NYSTROM_DIGESTS
        assert _sha(nm.components_) == SEED_NYSTROM_COMPONENTS_SHA

    def test_defaults_unchanged(self):
        # The raw-speed knobs must default to the seed behavior.
        p = PFR().get_params()
        assert p["knn_backend"] == "exact"
        assert p["knn_seed"] == 0
        assert p["dtype"] == "float64"
        k = KernelPFR().get_params()
        assert k["knn_backend"] == "exact"
        assert k["dtype"] == "float64"


def refreshed_child(X, WF, params):
    """Digests, components and bandwidth of the refreshed child that
    ``REFRESH_GOLDENS[config]`` pins, for that config's ``params``."""

    def estimator(landmarks):
        return _pfr(**{
            "exclude_columns": None, "extension": "nystrom",
            "landmarks": landmarks, "landmark_seed": 3, **params,
        })

    root = estimator(40)
    plan = LandmarkPlan.for_estimator(root, X, WF)
    plan.fit(root)
    drifted = np.random.default_rng(11).normal(loc=1.5, size=(40, 6))
    plan.extend(drifted, refresh="never")
    child = plan.refresh()
    refit = child.fit(estimator(child.n_landmarks))
    return {
        "params": params,
        "digests": child.stage_digests(),
        "components": _sha(refit.components_),
        "bandwidth": float(child._landmark_bandwidth()).hex(),
    }


class TestRefreshGoldens:
    @pytest.mark.parametrize("config", sorted(REFRESH_GOLDENS))
    def test_refreshed_child_bitwise(self, baseline, config):
        X, WF = baseline
        golden = REFRESH_GOLDENS[config]
        assert refreshed_child(X, WF, golden["params"]) == golden


class TestBackendsThroughPFR:
    def test_blocked_backend_bitwise_components(self, baseline):
        X, WF = baseline
        exact = _pfr().fit(X, WF)
        blocked = _pfr(knn_backend="blocked").fit(X, WF)
        assert _sha(blocked.components_) == _sha(exact.components_)

    def test_blocked_backend_changes_graph_digest(self, baseline):
        X, WF = baseline
        exact = _pfr().fit(X, WF)
        blocked = _pfr(knn_backend="blocked").fit(X, WF)
        assert blocked.plan_digests_["graph"] != exact.plan_digests_["graph"]

    def test_lsh_backend_high_fidelity(self, baseline):
        X, WF = baseline
        exact = _pfr().fit(X, WF)
        lsh = _pfr(knn_backend="lsh", knn_seed=1).fit(X, WF)
        fidelity = embedding_fidelity(exact.transform(X), lsh.transform(X))
        assert fidelity >= 0.95

    def test_lsh_seed_in_digest(self, baseline):
        X, WF = baseline
        a = _pfr(knn_backend="lsh", knn_seed=1).fit(X, WF)
        b = _pfr(knn_backend="lsh", knn_seed=2).fit(X, WF)
        assert a.plan_digests_["graph"] != b.plan_digests_["graph"]

    def test_backend_ignored_with_precomputed_graph(self, baseline):
        X, WF = baseline
        WX = knn_graph(X, n_neighbors=5, exclude=[5])
        a = _pfr().fit(X, WF, w_x=WX)
        b = _pfr(knn_backend="lsh", knn_seed=9).fit(X, WF, w_x=WX)
        assert a.plan_digests_ == b.plan_digests_

    def test_invalid_backend_rejected(self, baseline):
        X, WF = baseline
        with pytest.raises(ValidationError, match="knn_backend"):
            _pfr(knn_backend="faiss").fit(X, WF)


class TestApproximateSolvers:
    @pytest.mark.parametrize("solver", ["lobpcg", "randomized"])
    def test_fidelity_vs_dense(self, baseline, solver):
        X, WF = baseline
        dense = KernelPFR(
            n_components=3, gamma=0.25, n_neighbors=5, constraint="v"
        ).fit(X, WF)
        approx = KernelPFR(
            n_components=3, gamma=0.25, n_neighbors=5, constraint="v",
            eig_solver=solver,
        ).fit(X, WF)
        fidelity = embedding_fidelity(dense.transform(X), approx.transform(X))
        assert fidelity >= 0.99

    @pytest.mark.parametrize("solver", ["lobpcg", "randomized"])
    def test_solver_changes_solve_digest_only(self, baseline, solver):
        X, WF = baseline
        dense = _pfr().fit(X, WF)
        approx = _pfr(eig_solver=solver).fit(X, WF)
        assert approx.plan_digests_["graph"] == dense.plan_digests_["graph"]
        assert approx.plan_digests_["laplacian"] == dense.plan_digests_["laplacian"]
        assert approx.plan_digests_["solve"] != dense.plan_digests_["solve"]

    def test_generalized_lobpcg_close_to_dense(self, baseline):
        # The PFR default constraint="z" is a generalized eigenproblem;
        # lobpcg supports it natively and must stay close to LAPACK.
        X, WF = baseline
        dense = _pfr().fit(X, WF)
        lob = _pfr(eig_solver="lobpcg").fit(X, WF)
        fidelity = embedding_fidelity(dense.transform(X), lob.transform(X))
        assert fidelity >= 0.99

    def test_invalid_solver_rejected(self, baseline):
        X, WF = baseline
        with pytest.raises(ValidationError, match="eig_solver"):
            _pfr(eig_solver="arpack-shift").fit(X, WF)

    def test_small_problems_fall_back_to_dense_values(self, baseline):
        # Below the iterative-solver size guards the lobpcg/randomized
        # branches must return the dense answer exactly.
        X, WF = baseline
        X, WF = X[:30], WF[:30, :30]
        dense = _pfr(n_neighbors=4).fit(X, WF)
        for solver in ("lobpcg", "randomized"):
            approx = _pfr(n_neighbors=4, eig_solver=solver).fit(X, WF)
            np.testing.assert_array_equal(approx.components_, dense.components_)


class TestFloat32Pipeline:
    def test_pfr_end_to_end_float32(self, baseline):
        X, WF = baseline
        m = _pfr(dtype="float32").fit(X, WF)
        assert m.components_.dtype == np.float32
        assert m.eigenvalues_.dtype == np.float32
        Z = m.transform(X)
        assert Z.dtype == np.float32

    def test_pfr_float32_fidelity(self, baseline):
        X, WF = baseline
        m64 = _pfr().fit(X, WF)
        m32 = _pfr(dtype="float32").fit(X, WF)
        fidelity = embedding_fidelity(m64.transform(X), m32.transform(X))
        assert fidelity >= 0.99

    def test_kernel_pfr_end_to_end_float32(self, baseline):
        X, WF = baseline
        km64 = KernelPFR(n_components=3, gamma=0.25, n_neighbors=5).fit(X, WF)
        km32 = KernelPFR(
            n_components=3, gamma=0.25, n_neighbors=5, dtype="float32"
        ).fit(X, WF)
        assert km32.alphas_.dtype == np.float32
        Z = km32.transform(X)
        assert Z.dtype == np.float32
        assert embedding_fidelity(km64.transform(X), Z) >= 0.99

    def test_nystrom_float32(self, baseline):
        X, WF = baseline
        nm64 = _pfr(extension="nystrom", landmarks=40, landmark_seed=3).fit(X, WF)
        nm32 = _pfr(
            extension="nystrom", landmarks=40, landmark_seed=3, dtype="float32"
        ).fit(X, WF)
        assert nm32.components_.dtype == np.float32
        assert nm32.transform(X).dtype == np.float32
        fidelity = embedding_fidelity(nm64.transform(X), nm32.transform(X))
        assert fidelity >= 0.99

    def test_float32_changes_digests(self, baseline):
        X, WF = baseline
        m64 = _pfr().fit(X, WF)
        m32 = _pfr(dtype="float32").fit(X, WF)
        for stage in ("graph", "laplacian", "projection", "solve"):
            assert m32.plan_digests_[stage] != m64.plan_digests_[stage]

    def test_fit_path_threads_numeric_knobs(self, baseline):
        X, WF = baseline
        models = fit_path(
            X, WF, gammas=(0.0, 1.0), dims=(2,),
            estimator=PFR(n_neighbors=5, exclude_columns=[5],
                          dtype="float32", knn_backend="blocked"),
        )
        assert len(models) == 2
        assert all(m.components_.dtype == np.float32 for m in models)

    def test_invalid_dtype_rejected(self, baseline):
        X, WF = baseline
        with pytest.raises(ValidationError, match="dtype"):
            _pfr(dtype="float16").fit(X, WF)


class TestPersistenceAndServing:
    def test_io_round_trip_float32(self, baseline, tmp_path):
        X, WF = baseline
        m = _pfr(dtype="float32", knn_backend="blocked").fit(X, WF)
        restored = load_model(save_model(m, tmp_path / "pfr32"))
        assert restored.components_.dtype == np.float32
        np.testing.assert_array_equal(restored.components_, m.components_)
        np.testing.assert_array_equal(restored.transform(X), m.transform(X))
        header = read_header(tmp_path / "pfr32.npz")
        assert header["params"]["dtype"] == "float32"
        assert header["params"]["knn_backend"] == "blocked"

    def test_registry_manifest_records_numeric_knobs(self, baseline, tmp_path):
        X, WF = baseline
        m = _pfr(dtype="float32", knn_backend="lsh", knn_seed=4,
                 eig_solver="lobpcg").fit(X, WF)
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.register("pfr32", m)
        assert record.params["dtype"] == "float32"
        assert record.params["knn_backend"] == "lsh"
        assert record.params["knn_seed"] == 4
        assert record.params["eig_solver"] == "lobpcg"
        # The on-disk record is what `models show` renders; read it back
        # with a fresh registry to prove the knobs survived serialization.
        fresh = ModelRegistry(tmp_path / "registry").record("pfr32", 1)
        assert fresh.params["knn_backend"] == "lsh"
        assert fresh.params["dtype"] == "float32"

    def test_registry_round_trip_serves_float32(self, baseline, tmp_path):
        X, WF = baseline
        m = _pfr(dtype="float32").fit(X, WF)
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("pfr32", m)
        served = registry.load("pfr32")
        assert served.transform(X).dtype == np.float32
