"""Tests for repro.core.plan — the staged spectral fit pipeline.

The module also holds the default path's goldens: stage digests and
fitted arrays captured before later changes, which every fit must keep
byte for byte.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    PFR,
    KernelPFR,
    LandmarkPlan,
    SpectralFitPlan,
    fit_path,
    plan_for_estimator,
)
from repro.core.plan import _LANDMARK, _STRUCTURAL, Precomputed
from repro.exceptions import ValidationError
from repro.graphs import between_group_quantile_graph, knn_graph
from repro.ml.base import clone
from repro.obs import get_registry, read_trace, tracing


def _workload(rng, n=36, m=6):
    X = rng.normal(size=(n, m))
    groups = np.repeat([0, 1], n // 2)
    scores = rng.random(n)
    WF = between_group_quantile_graph(scores, groups, n_quantiles=4)
    return X, WF


def _fitted_basis(model):
    return model.components_ if isinstance(model, PFR) else model.alphas_


class TestFitPathMatchesFit:
    """Every estimator out of fit_path must equal an independent fit()."""

    @pytest.mark.parametrize("constraint", ["z", "v"])
    @pytest.mark.parametrize("rescale", ["objective", "degree", "none"])
    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_grid_equals_independent_fits(self, rng, kind, rescale, constraint):
        X, WF = _workload(rng)
        if kind == "linear":
            template = PFR(n_components=2, n_neighbors=4,
                           rescale=rescale, constraint=constraint)
            d_max = X.shape[1]
        else:
            template = KernelPFR(n_components=2, n_neighbors=4, kernel="rbf",
                                 rescale=rescale, constraint=constraint)
            d_max = 5
        models = fit_path(
            X, WF, gammas=[0.0, 0.5, 1.0], dims=[1, d_max], estimator=template
        )
        assert len(models) == 6
        for model in models:
            solo = type(model)(**model.get_params()).fit(X, WF)
            np.testing.assert_allclose(
                model.eigenvalues_, solo.eigenvalues_, atol=1e-8
            )
            np.testing.assert_allclose(
                _fitted_basis(model), _fitted_basis(solo), atol=1e-8
            )

    def test_gamma_major_order_and_params(self, rng):
        X, WF = _workload(rng)
        models = fit_path(
            X, WF, gammas=[0.2, 0.8], dims=[1, 3],
            estimator=PFR(n_neighbors=4),
        )
        operating_points = [(m.gamma, m.n_components) for m in models]
        assert operating_points == [(0.2, 1), (0.2, 3), (0.8, 1), (0.8, 3)]
        for model in models:
            assert model.components_.shape == (X.shape[1], model.n_components)

    def test_template_is_not_mutated(self, rng):
        X, WF = _workload(rng)
        template = PFR(n_components=2, gamma=0.4, n_neighbors=4)
        fit_path(X, WF, gammas=[0.0, 1.0], estimator=template)
        assert template.gamma == 0.4
        assert not hasattr(template, "components_")

    def test_default_template_and_dims(self, rng):
        X, WF = _workload(rng)
        models = fit_path(X, WF, gammas=[0.5])
        assert len(models) == 1
        assert isinstance(models[0], PFR)
        assert models[0].n_components == PFR().n_components

    def test_empty_gammas_rejected(self, rng):
        X, WF = _workload(rng)
        with pytest.raises(ValidationError, match="gamma"):
            fit_path(X, WF, gammas=[])

    def test_bad_dims_rejected(self, rng):
        X, WF = _workload(rng)
        with pytest.raises(ValidationError, match="dims"):
            fit_path(X, WF, gammas=[0.5], dims=[0])


class TestFitPathStaging:
    """A sweep builds the γ-independent stages once, where a refit loop
    builds them per γ: the staged fit's saving, held as counts."""

    @pytest.mark.parametrize("template", [
        PFR(n_components=4), KernelPFR(n_components=4, kernel="rbf"),
    ], ids=["PFR", "KernelPFR"])
    def test_sweep_builds_each_stage_once(self, rng, template, tmp_path):
        n = 200
        X = rng.normal(size=(n, 16))
        scores = X[:, 0] + rng.normal(scale=0.5, size=n)
        WF = between_group_quantile_graph(
            scores, rng.integers(0, 2, n), n_quantiles=8
        )
        gammas = np.linspace(0.0, 1.0, 10)
        registry = get_registry()

        def knn_builds(sweep) -> float:
            before = registry.total("knn.build")
            sweep()
            return registry.total("knn.build") - before

        assert knn_builds(lambda: [
            clone(template).set_params(gamma=g).fit(X, WF) for g in gammas
        ]) == len(gammas)
        with tracing(tmp_path / "sweep.jsonl"):
            builds = knn_builds(
                lambda: fit_path(X, WF, gammas=gammas, estimator=template)
            )
        assert builds == 1
        projections = [r for r in read_trace(tmp_path / "sweep.jsonl")
                       if r["type"] == "span" and r["name"] == "plan.projection"]
        assert len(projections) == 1


class TestStages:
    def test_bundles_are_immutable(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        graph = plan.graph
        assert isinstance(graph, Precomputed)
        with pytest.raises(TypeError):
            graph.data["w_x"] = None
        with pytest.raises(AttributeError):
            graph.digest = "tampered"

    def test_stage_chain_materializes(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        assert plan.graph.stage == "graph"
        assert plan.laplacians.stage == "laplacian"
        assert plan.projection.stage == "projection"
        assert plan.d_max == X.shape[1]
        assert plan.laplacians["L_x"].shape == (X.shape[0], X.shape[0])

    def test_solve_caches_and_slices(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        evals_full, V_full = plan.solve(0.5, 4)
        evals_small, V_small = plan.solve(0.5, 2)
        np.testing.assert_allclose(evals_small, evals_full[:2], atol=1e-10)
        np.testing.assert_allclose(V_small, V_full[:, :2], atol=1e-10)

    def test_solve_validates_gamma_and_d(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        with pytest.raises(ValidationError, match="gamma"):
            plan.solve(1.5, 2)
        with pytest.raises(ValidationError, match=r"d must be"):
            plan.solve(0.5, X.shape[1] + 1)

    def test_structural_mismatch_rejected(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        with pytest.raises(ValidationError, match="incompatible"):
            plan.fit(PFR(n_neighbors=7))
        with pytest.raises(ValidationError, match="kernel plan|linear plan"):
            plan.fit(KernelPFR())

    def test_kernel_rank_limit_message(self, rng):
        X, WF = _workload(rng, n=12)
        plan = SpectralFitPlan.for_estimator(KernelPFR(n_neighbors=4), X, WF)
        with pytest.raises(ValidationError, match="kernel rank"):
            plan.solve(0.5, 13)


class TestDigests:
    def test_digests_are_deterministic(self, rng):
        X, WF = _workload(rng)
        plan_a = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        plan_b = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        assert plan_a.stage_digests() == plan_b.stage_digests()
        digests = plan_a.stage_digests()
        assert set(digests) == {"graph", "laplacian", "projection", "solve"}
        assert all(len(d) == 64 for d in digests.values())

    def test_precomputed_wx_digest_ignores_knn_params(self, rng):
        # With a precomputed data graph the k-NN settings don't influence
        # the stage output, so they must not influence its digest either.
        from repro.graphs import knn_graph

        X, WF = _workload(rng)
        WX = knn_graph(X, n_neighbors=4)
        a = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF, w_x=WX)
        b = SpectralFitPlan.for_estimator(PFR(n_neighbors=9), X, WF, w_x=WX)
        assert a.graph.digest == b.graph.digest

    def test_data_changes_graph_digest(self, rng):
        X, WF = _workload(rng)
        base = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        shifted = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X + 1.0, WF)
        assert base.graph.digest != shifted.graph.digest

    def test_rescale_changes_downstream_digests_only(self, rng):
        X, WF = _workload(rng)
        obj = SpectralFitPlan.for_estimator(
            PFR(n_neighbors=4, rescale="objective"), X, WF
        ).stage_digests()
        none = SpectralFitPlan.for_estimator(
            PFR(n_neighbors=4, rescale="none"), X, WF
        ).stage_digests()
        assert obj["graph"] == none["graph"]
        assert obj["laplacian"] == none["laplacian"]
        assert obj["projection"] != none["projection"]
        assert obj["solve"] != none["solve"]

    def test_fitted_estimators_carry_digests(self, rng):
        X, WF = _workload(rng)
        linear = PFR(n_components=2, n_neighbors=4).fit(X, WF)
        kernel = KernelPFR(n_components=2, n_neighbors=4).fit(X, WF)
        for model in (linear, kernel):
            assert set(model.plan_digests_) == {
                "graph", "laplacian", "projection", "solve"
            }
        # Same γ-independent digests for every sweep point of one plan.
        sweep = fit_path(X, WF, gammas=[0.1, 0.9],
                         estimator=PFR(n_components=2, n_neighbors=4))
        assert sweep[0].plan_digests_ == sweep[1].plan_digests_


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
    plan.extend(drifted)
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


# Captured before the structural hyper-parameters moved into one table:
# the stage digests and the sha256 of ``components_``/``alphas_`` for each
# non-default structural combination on the baseline problem. Kernel
# configs extend ``KernelPFR(n_components=3, gamma=0.25, n_neighbors=5)``,
# linear ones ``_pfr()``; ``w_x`` marks a precomputed data graph.
STRUCTURAL_GOLDENS = {
    "kernel-z-objective": {
        "params": {"constraint": "z", "rescale": "objective"},
        "digests": {
            "graph": "b3879fadf7c21ab77265cd8a98b89f96a2a47114b648fc113b521515a8566047",
            "laplacian": "7ba4fa074f53b4c2baea35a5b8562142073ea11eb193853e30bdce928dff4677",
            "projection": "6baef9457ad6b4a671d340bb7b082534e7f6838982bddacd520cb427181011e0",
            "solve": "868da984bbcebf588852a32ebedef244100e459aad67ba87f2bdb4f36751b186",
        },
        "fitted": "d4df3379760d61c9855333cd06725489d2bcbde8a91a93957025face5aa3db7e",
    },
    "kernel-z-degree": {
        "params": {"constraint": "z", "rescale": "degree"},
        "digests": {
            "graph": "b3879fadf7c21ab77265cd8a98b89f96a2a47114b648fc113b521515a8566047",
            "laplacian": "7ba4fa074f53b4c2baea35a5b8562142073ea11eb193853e30bdce928dff4677",
            "projection": "4f8d4e50987ebcb7fef3d28190679066eb1ef0c149075114253561c759855f3d",
            "solve": "dcc1347c38ad22c9729b031c1189032141a595de99b66301ad035800dcd8804c",
        },
        "fitted": "474a16e187b47f9c387a32ebac8184e0da7509a2008d1959ce4fce0a4d2c4f40",
    },
    "kernel-z-none": {
        "params": {"constraint": "z", "rescale": "none"},
        "digests": {
            "graph": "b3879fadf7c21ab77265cd8a98b89f96a2a47114b648fc113b521515a8566047",
            "laplacian": "7ba4fa074f53b4c2baea35a5b8562142073ea11eb193853e30bdce928dff4677",
            "projection": "af6466fc407b4e5c5f308b8c9c70148e243028a5de70aa32f03af5482f364003",
            "solve": "9b962a20bce432600e04d94d0dd0ab60d23f9db37fc79ccd43c38ea1564c0596",
        },
        "fitted": "136bde1af9da0f7e6107936382c8e7847b3d5135d63a514a8352cd092c997cdd",
    },
    "kernel-v-objective": {
        "params": {"constraint": "v", "rescale": "objective"},
        "digests": {
            "graph": "b3879fadf7c21ab77265cd8a98b89f96a2a47114b648fc113b521515a8566047",
            "laplacian": "7ba4fa074f53b4c2baea35a5b8562142073ea11eb193853e30bdce928dff4677",
            "projection": "a3ac6978973f749d05281d1014e8c2ebdba26848017b789ebbd799c0159e0995",
            "solve": "0e3d60fb9fe0b30d537e0284f0ebee7217dcee3632291f80b4c1775e40f151d1",
        },
        "fitted": "3f0377971d63f2cc0a9594c0376376ae293c5f48a54fe974050612a577f8415a",
    },
    "kernel-v-degree": {
        "params": {"constraint": "v", "rescale": "degree"},
        "digests": {
            "graph": "b3879fadf7c21ab77265cd8a98b89f96a2a47114b648fc113b521515a8566047",
            "laplacian": "7ba4fa074f53b4c2baea35a5b8562142073ea11eb193853e30bdce928dff4677",
            "projection": "eb4437a89a599b9dc4341e837a6afc3ab9fe0a8cb35edfd2dbc39399a4ac3450",
            "solve": "591ac49d166720c368db0f2f348d7a7cb3fa213840b61e2670b8feb3020e90fe",
        },
        "fitted": "2051401eb7e4930ae16656e32512169cd8f09ff7c4866fca2651d0ed7bad93a4",
    },
    "kernel-v-none": {
        "params": {"constraint": "v", "rescale": "none"},
        "digests": {
            "graph": "b3879fadf7c21ab77265cd8a98b89f96a2a47114b648fc113b521515a8566047",
            "laplacian": "7ba4fa074f53b4c2baea35a5b8562142073ea11eb193853e30bdce928dff4677",
            "projection": "bc9a056e31e36b652dba24a3fd05cdc1a8691e5ad5ed306445664ad09b42c4b8",
            "solve": "9dbf222f14a4c8f7206f9771327738c6a2ca15532471c6b6d1720164122cebdb",
        },
        "fitted": "df14efc9f106c6cf296c053b1c177cb098323ef4d762e9ff8789c93224571827",
    },
    "linear-normalized": {
        "params": {"normalized_laplacian": True},
        "digests": {
            "graph": "a398c7f04f5598d5995a4c7792835c55d960ae5701a50c9a44ea50df60034b84",
            "laplacian": "e14a72f91d3ebb7fd8484ce8e64da1c0bcf0be26ff55180f08475c41388a18b5",
            "projection": "adccf9fbff6f182615058a16ffd77285e87ef7784ed4b139ee9b7f529e3b6eed",
            "solve": "826cdd905385e41e609c2a42be92b5c2f3f66f4b8a891e0f3c5ccc27f5d351da",
        },
        "fitted": "838351817f57ccfd2b6cd9f8a2fcd6b2d8d45f1fe47c278209d20c80c6aff3dd",
    },
    "linear-v": {
        "params": {"constraint": "v"},
        "digests": {
            "graph": "a398c7f04f5598d5995a4c7792835c55d960ae5701a50c9a44ea50df60034b84",
            "laplacian": "ff9e29cab79c81558e268fbc8d437c6d5bd4607482ed12bc50c9e2371a296ca9",
            "projection": "a2492c878475c227ff9d7e00d9aa4fd29ddfbf7b690f8217178eb46facfdd503",
            "solve": "11010f8e8a48355a342eb24dc54f44f98f7f0a80ce9918eadd4c98f27d92fbc6",
        },
        "fitted": "69203d6fa3ead248d5796e974054d6ddbf8ed62d9e19e2234d02d57e54514305",
    },
    "linear-precomputed-wx": {
        "params": {"exclude_columns": None},
        "w_x": True,
        "digests": {
            "graph": "c677743e62a405a6c73d18853e1a13a6b17f3c70aa834d75cc8acba4aee698e4",
            "laplacian": "4b485384b3f9b312d11f1032f1ebd5195e611b98574aa1ba5d3b5fa0abc8b77c",
            "projection": "52d1f3a12fe175716b17df29db4b10a7c477d6fb0d30ab8cbf2adbd36c307dd5",
            "solve": "0766f16e9b974860cc6f05b404b5af9f34d4e6569ae3dbce7e84edb8130d2b93",
        },
        "fitted": "00d492ebf5e5d4a6e54d8d24a2857bc37ba124bd445632fce048331622830d84",
    },
    "kernel-nystrom": {
        "params": {"extension": "nystrom", "landmarks": 40, "landmark_seed": 3},
        "digests": {
            "landmarks": "217f9b185f9ac8ca825f5c46dfc65cbc3f4442a89c85a790a14040970650c6a3",
            "graph": "f06faa7cdbe232d27f0ffb832b2b189f4f95db1ddb92eacb18a904882069e5f3",
            "laplacian": "c820b86f96ef6ad6cfaf076a536e855cd6aa7bc8997db4a39a3a2ed19d3cd5a7",
            "projection": "db67a55008f88b3b533e74a4d0d2d685d030183e9486fb8ccce7b28f8d6f09f2",
            "solve": "2b33abb805733493c7481e4277c485ea2ba617a0dea4218bf8d87f03a504a423",
        },
        "fitted": "c320cc5ca9ed4ef12f98f090ebf0a2104b3636d6e20a94a1c4fbaec2bd005311",
    },
}


def _structural_estimator(config):
    params = STRUCTURAL_GOLDENS[config]["params"]
    if config.startswith("kernel"):
        return KernelPFR(n_components=3, gamma=0.25, n_neighbors=5, **params)
    return _pfr(**params)


class TestStructuralGoldens:
    @pytest.mark.parametrize("config", sorted(STRUCTURAL_GOLDENS))
    def test_fit_bitwise(self, baseline, config):
        X, WF = baseline
        golden = STRUCTURAL_GOLDENS[config]
        w_x = knn_graph(X, n_neighbors=5) if golden.get("w_x") else None
        model = _structural_estimator(config).fit(X, WF, w_x=w_x)
        assert model.plan_digests_ == golden["digests"]
        assert _sha(_fitted_basis(model)) == golden["fitted"]


# A valid value differing from the templates below, per constructor name.
_OTHER_VALUE = {
    "n_neighbors": 7,
    "bandwidth": 2.0,
    "exclude_columns": [4],
    "normalized_laplacian": True,
    "rescale": "none",
    "constraint": "v",
    "ridge": 1e-6,
    "kernel": "poly",
    "kernel_bandwidth": 3.0,
    "degree": 2,
    "coef0": 0.5,
    "landmarks": 30,
    "landmark_strategy": "uniform",
    "landmark_seed": 4,
}
# Constructor names a plan leaves free or dispatches on.
_NOT_STRUCTURAL = {"gamma", "n_components", "extension"}


def _constructor_names(cls, *, landmark):
    names = sorted(set(cls._param_names()) - _NOT_STRUCTURAL)
    return [name for name in names if name.startswith("landmark") == landmark]


def _mismatch_cases():
    cases = []
    for cls in (PFR, KernelPFR):
        for extension in ("exact", "nystrom"):
            names = _constructor_names(cls, landmark=False)
            if extension == "nystrom":
                names += _constructor_names(cls, landmark=True)
            cases += [(cls, extension, name) for name in names]
    return cases


class TestStructuralTable:
    """The table behind every plan: each estimator name that shapes a fit
    is in it, so a plan rejects an estimator differing in that name alone
    (a name dropped from the table would be fitted silently)."""

    @pytest.mark.parametrize("cls", [PFR, KernelPFR])
    def test_table_lists_every_constructor_name(self, cls):
        kind = "linear" if cls is PFR else "kernel"
        assert sorted(_STRUCTURAL[kind]) == _constructor_names(cls, landmark=False)
        assert sorted(_LANDMARK) == _constructor_names(cls, landmark=True)

    @pytest.mark.parametrize(
        "cls, extension, name", _mismatch_cases(),
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_plan_rejects_one_name_off(self, rng, cls, extension, name):
        X, WF = _workload(rng)
        template = cls(n_neighbors=4, exclude_columns=[5], extension=extension,
                       landmarks=20 if extension == "nystrom" else None)
        plan = plan_for_estimator(template, X, WF)
        plan.fit(clone(template))
        other = clone(template).set_params(**{name: _OTHER_VALUE[name]})
        with pytest.raises(ValidationError, match=f"incompatible.*{name}="):
            plan.fit(other)


_BAD_VALUES = [
    (PFR, {"n_neighbors": 2.5}, "n_neighbors must be an integer"),
    (KernelPFR, {"n_neighbors": 2.5}, "n_neighbors must be an integer"),
    (PFR, {"extension": "nystrom", "landmarks": "a"},
     "landmarks must be an integer"),
    (PFR, {"extension": "nystrom", "landmarks": 2.5},
     "landmarks must be an integer"),
    (KernelPFR, {"extension": "nystrom", "landmarks": None},
     "landmarks must be an integer"),
    (PFR, {"ridge": float("nan")}, "ridge must be non-negative"),
    (KernelPFR, {"ridge": float("nan")}, "ridge must be non-negative"),
    (PFR, {"normalized_laplacian": "no"}, "normalized_laplacian must be a bool"),
    (PFR, {"n_components": 2.5}, "n_components must be an integer"),
    (KernelPFR, {"n_components": 2.5}, "n_components must be an integer"),
    (PFR, {"extension": "nystrom", "landmarks": 20, "n_components": 2.5},
     "n_components must be an integer"),
    (PFR, {"gamma": "a"}, "gamma must be in"),
    (KernelPFR, {"gamma": None}, "gamma must be in"),
    (PFR, {"bandwidth": "x"}, "^bandwidth must be a positive finite"),
    (PFR, {"bandwidth": float("nan")}, "^bandwidth must be a positive finite"),
    (KernelPFR, {"bandwidth": -1.0}, "^bandwidth must be a positive finite"),
    (KernelPFR, {"kernel_bandwidth": -1.0}, "kernel_bandwidth must be a positive"),
    (KernelPFR, {"kernel_bandwidth": "x"}, "kernel_bandwidth must be a positive"),
    (KernelPFR, {"kernel": "foo"}, "kernel must be one of"),
    (KernelPFR, {"kernel": "poly", "degree": 2.5}, "degree must be an integer"),
    (KernelPFR, {"kernel": "poly", "degree": "x"}, "degree must be an integer"),
    (KernelPFR, {"kernel": "poly", "degree": 0}, "degree must be an integer"),
    (KernelPFR, {"kernel": "poly", "coef0": float("nan")},
     "coef0 must be finite"),
]


class TestHyperParameterChecks:
    """A bad value raises a ValidationError naming its parameter, from the
    one site that checks it."""

    @pytest.mark.parametrize("cls, params, message", _BAD_VALUES, ids=[
        cls.__name__ + "-" + ",".join(f"{k}={v!r}" for k, v in params.items())
        for cls, params, _ in _BAD_VALUES
    ])
    def test_bad_value_names_the_parameter(self, rng, cls, params, message):
        X, WF = _workload(rng)
        registry = get_registry()
        before = registry.total("knn.build")
        with pytest.raises(ValidationError, match=message):
            cls(**params).fit(X, WF)
        # Rejected before any stage ran: the k-NN graph was never built.
        assert registry.total("knn.build") == before

    def test_integral_numpy_scalars_accepted(self, baseline):
        X, WF = baseline
        model = _pfr(
            n_components=np.int64(3), n_neighbors=np.int32(5),
            extension="nystrom", landmarks=np.int64(40), landmark_seed=3,
        ).fit(X, WF)
        assert model.plan_digests_ == SEED_NYSTROM_DIGESTS
        assert _sha(model.components_) == SEED_NYSTROM_COMPONENTS_SHA
        kernel = KernelPFR(
            n_components=np.int64(3), gamma=0.25, n_neighbors=np.int64(5)
        ).fit(X, WF)
        assert _sha(kernel.alphas_) == SEED_KPFR_ALPHAS_SHA
