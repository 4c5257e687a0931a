"""Tests for repro.core.plan — the staged spectral fit pipeline.

The module also holds the default path's goldens: stage digests and
fitted arrays captured before later changes, which every fit must keep
byte for byte.
"""

import hashlib

import numpy as np
import pytest

from repro.core import PFR, KernelPFR, LandmarkPlan, SpectralFitPlan, fit_path
from repro.core.plan import Precomputed
from repro.exceptions import ValidationError
from repro.graphs import between_group_quantile_graph, knn_graph


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
