"""Tests for repro.core.kernel_pfr — the §3.3.4 extension."""

import numpy as np
import pytest

from repro.core import PFR, KernelPFR, kernel_matrix
from repro.exceptions import NotFittedError, ValidationError
from repro.graphs import pairwise_judgment_graph


@pytest.fixture
def ring_data(rng):
    """Two concentric rings — linearly inseparable, kernel-friendly."""
    n = 40
    angles = rng.uniform(0, 2 * np.pi, size=n)
    radii = np.concatenate([np.full(n // 2, 1.0), np.full(n // 2, 3.0)])
    X = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    y = (radii > 2.0).astype(int)
    return X, y


class TestKernelMatrix:
    def test_linear_kernel(self, rng):
        X = rng.normal(size=(6, 3))
        np.testing.assert_allclose(kernel_matrix(X, kernel="linear"), X @ X.T)

    def test_rbf_diagonal_is_one(self, rng):
        X = rng.normal(size=(8, 2))
        K = kernel_matrix(X, kernel="rbf", bandwidth=1.0)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_rbf_bounded(self, rng):
        K = kernel_matrix(rng.normal(size=(10, 2)), kernel="rbf", bandwidth=2.0)
        assert K.min() > 0.0 and K.max() <= 1.0 + 1e-12

    def test_rbf_symmetric_psd(self, rng):
        K = kernel_matrix(rng.normal(size=(12, 3)), kernel="rbf")
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        assert np.linalg.eigvalsh(K).min() > -1e-9

    def test_poly_kernel(self, rng):
        X = rng.normal(size=(5, 2))
        K = kernel_matrix(X, kernel="poly", degree=2, coef0=1.0)
        np.testing.assert_allclose(K, (X @ X.T + 1.0) ** 2)

    def test_cross_kernel_shape(self, rng):
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(6, 3))
        assert kernel_matrix(X, Y, kernel="rbf", bandwidth=1.0).shape == (4, 6)

    def test_unknown_kernel(self, rng):
        with pytest.raises(ValidationError, match="kernel"):
            kernel_matrix(rng.normal(size=(3, 2)), kernel="mystery")

    def test_feature_mismatch(self, rng):
        with pytest.raises(ValidationError, match="feature"):
            kernel_matrix(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))

    def test_invalid_degree(self, rng):
        with pytest.raises(ValidationError, match="degree"):
            kernel_matrix(rng.normal(size=(3, 2)), kernel="poly", degree=0)


class TestKernelPFR:
    def test_shapes(self, ring_data):
        X, _ = ring_data
        WF = pairwise_judgment_graph([(0, 1), (2, 3)], n=len(X))
        model = KernelPFR(n_components=3, gamma=0.5).fit(X, WF)
        assert model.alphas_.shape == (len(X), 3)
        assert model.transform(X).shape == (len(X), 3)

    def test_out_of_sample(self, ring_data, rng):
        X, _ = ring_data
        WF = pairwise_judgment_graph([(0, 1)], n=len(X))
        model = KernelPFR(n_components=2).fit(X, WF)
        Z_new = model.transform(rng.normal(size=(5, 2)))
        assert Z_new.shape == (5, 2)
        assert np.all(np.isfinite(Z_new))

    def test_linear_kernel_spans_linear_pfr_space(self, rng):
        # With a linear kernel, the kernel-PFR embedding must lie in the
        # span of the linear features (rank <= m).
        X = rng.normal(size=(30, 3))
        WF = pairwise_judgment_graph([(0, 1), (4, 7)], n=30)
        model = KernelPFR(n_components=2, kernel="linear", ridge=1e-10).fit(X, WF)
        Z = model.transform(X)
        # residual of projecting Z onto col-space of X should be ~0
        proj, *_ = np.linalg.lstsq(X, Z, rcond=None)
        np.testing.assert_allclose(X @ proj, Z, atol=1e-6)

    def test_deterministic(self, ring_data):
        X, _ = ring_data
        WF = pairwise_judgment_graph([(0, 1)], n=len(X))
        Z1 = KernelPFR(n_components=2, kernel_bandwidth=1.0).fit(X, WF).transform(X)
        Z2 = KernelPFR(n_components=2, kernel_bandwidth=1.0).fit(X, WF).transform(X)
        np.testing.assert_array_equal(Z1, Z2)

    def test_bandwidth_frozen_at_fit(self, ring_data):
        X, _ = ring_data
        WF = pairwise_judgment_graph([(0, 1)], n=len(X))
        model = KernelPFR(n_components=2).fit(X, WF)
        assert model._fitted_bandwidth is not None

    def test_gamma_out_of_range(self, ring_data):
        X, _ = ring_data
        WF = pairwise_judgment_graph([], n=len(X))
        with pytest.raises(ValidationError, match="gamma"):
            KernelPFR(gamma=-0.1).fit(X, WF)

    def test_n_components_bounded_by_n(self, rng):
        X = rng.normal(size=(5, 2))
        WF = pairwise_judgment_graph([], n=5)
        with pytest.raises(ValidationError, match="n_components"):
            KernelPFR(n_components=6).fit(X, WF)

    def test_n_neighbors_clamped_to_n_minus_one(self, rng):
        # Regression: KernelPFR must clamp n_neighbors to n - 1 exactly
        # like PFR.fit does, instead of erroring in the k-NN stage.
        X = rng.normal(size=(8, 3))
        WF = pairwise_judgment_graph([(0, 1)], n=8)
        model = KernelPFR(n_components=2, n_neighbors=50).fit(X, WF)
        clamped = KernelPFR(n_components=2, n_neighbors=7).fit(X, WF)
        np.testing.assert_allclose(model.alphas_, clamped.alphas_)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KernelPFR().transform(np.ones((2, 2)))

    def test_feature_mismatch_at_transform(self, ring_data):
        X, _ = ring_data
        WF = pairwise_judgment_graph([], n=len(X))
        model = KernelPFR(n_components=2).fit(X, WF)
        with pytest.raises(ValidationError, match="features"):
            model.transform(np.ones((3, 5)))

    def test_fit_transform_requires_graph(self, ring_data):
        X, _ = ring_data
        with pytest.raises(ValidationError, match="fairness graph"):
            KernelPFR().fit_transform(X)

    def test_rbf_embedding_separates_rings(self, ring_data):
        # A qualitative check of the kernel extension's value: the rings are
        # not linearly separable in the raw features, but a classifier on
        # the RBF kernel-PFR embedding should separate them well.
        from repro.ml import LogisticRegression

        X, y = ring_data
        WF = pairwise_judgment_graph([], n=len(X))
        raw_accuracy = LogisticRegression().fit(X, y).score(X, y)

        kernel = KernelPFR(
            n_components=6, gamma=0.0, n_neighbors=5, kernel="rbf"
        ).fit(X, WF)
        Z = kernel.transform(X)
        kernel_accuracy = LogisticRegression().fit(Z, y).score(Z, y)
        assert raw_accuracy < 0.8
        assert kernel_accuracy > raw_accuracy


class TestFitReference:
    """``_kernel_rows`` derives ``X_fit_``'s checked rows and norms once."""

    @pytest.fixture(params=["rbf", "poly", "linear", "nystrom"])
    def model(self, request, rng):
        # 60 x 13: wide and tall enough that K(X_fit_, X_fit_) through the
        # symmetric product differs in the last bits from an equal copy's.
        X = rng.normal(size=(60, 13))
        WF = pairwise_judgment_graph([(0, 1), (5, 30)], n=len(X))
        if request.param == "nystrom":
            params = {"extension": "nystrom", "landmarks": 25}
        else:
            params = {"kernel": request.param}
        return KernelPFR(n_components=2, gamma=0.5, n_neighbors=5, **params).fit(
            X, WF
        )

    @staticmethod
    def _reference(model, X):
        return kernel_matrix(
            X, model.X_fit_, kernel=model.kernel,
            bandwidth=model._fitted_bandwidth, degree=model.degree,
            coef0=model.coef0,
        )

    def test_bitwise_equal_to_kernel_matrix(self, model, rng):
        X_fit = model.X_fit_
        for X in (X_fit, X_fit.copy(), rng.normal(size=(7, 13))):
            expected = self._reference(model, X)
            # The second call reads the cached norms.
            for _ in range(2):
                assert model._kernel_rows(X).tobytes() == expected.tobytes()

    def test_norms_computed_once(self, model, rng, monkeypatch):
        from repro.core import kernel_pfr

        calls = []
        real = kernel_pfr._sq_norms

        def counting(X):
            calls.append(X.shape)
            return real(X)

        monkeypatch.setattr(kernel_pfr, "_sq_norms", counting)
        model.__dict__.pop("_fit_norms", None)
        for _ in range(3):
            model.transform(rng.normal(size=(4, 13)))
        assert calls == [model.X_fit_.shape]

    def test_replacing_x_fit_refreshes_norms(self, model, rng):
        X = rng.normal(size=(5, 13))
        model.transform(X)
        model.X_fit_ = model.X_fit_ * 1.5
        assert model._kernel_rows(X).tobytes() == (
            self._reference(model, X).tobytes()
        )

    def test_non_finite_x_fit_rejected_every_call(self, model, rng):
        X = rng.normal(size=(5, 13))
        bad = model.X_fit_.copy()
        bad[0, 0] = np.nan
        model.X_fit_ = bad
        for _ in range(2):
            with pytest.raises(ValidationError, match="NaN or infinity"):
                model.transform(X)

    def test_save_model_bytes_unchanged(self, model, rng, tmp_path):
        from repro.io import save_model

        before = save_model(model, tmp_path / "before.npz").read_bytes()
        model.transform(rng.normal(size=(5, 13)))
        assert hasattr(model, "_fit_norms")
        after = save_model(model, tmp_path / "after.npz").read_bytes()
        assert after == before
