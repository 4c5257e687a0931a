"""Parity + property tests for the landmark-Nyström scaling layer.

The contract under test (``repro.core.approx``):

* **Exactness at m = n** — a landmark fit that selects every training row
  must reproduce the exact :class:`~repro.core.SpectralFitPlan` solve to
  1e-8, for every selection strategy and for both estimator families.
* **Fidelity is monotone in m** — on a seeded blob dataset, the aligned
  cosine similarity between the landmark and exact embeddings of held-out
  rows improves as the landmark budget grows.
* **Out-of-sample serving** — nystrom models transform arbitrary unseen
  rows; provenance (``landmarks`` stage digest, ``landmark_indices_``)
  survives persistence.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro import PFR, KernelPFR
from repro.core import (
    LANDMARK_STRATEGIES,
    LandmarkPlan,
    SpectralFitPlan,
    embedding_fidelity,
    fit_path,
    nystrom_extend,
    plan_for_estimator,
    row_agreement,
    select_landmarks,
)
from repro.datasets import simulate_blobs
from repro.exceptions import ValidationError
from repro.graphs import (
    between_group_quantile_graph,
    knn_graph,
    resolve_bandwidth,
)
from repro.io import load_model, save_model
from repro.lifecycle import holdout_agreement, scorer_for
from repro.obs import read_trace, tracing

PARITY_TOL = 1e-8


@pytest.fixture(scope="module")
def blob_problem():
    """Seeded blob workload: data, fairness graph, and held-out eval rows."""
    data = simulate_blobs(400, n_features=6, seed=5)
    w_fair = between_group_quantile_graph(
        data.side_information, data.s, n_quantiles=6
    )
    rng = np.random.default_rng(9)
    X_eval = data.X[rng.choice(data.X.shape[0], 120, replace=False)]
    return data.X, w_fair, X_eval


class TestSelectLandmarks:
    def test_sorted_unique_indices(self, rng):
        X = rng.normal(size=(50, 4))
        for strategy in LANDMARK_STRATEGIES:
            indices = select_landmarks(X, 12, strategy=strategy, seed=3)
            assert indices.shape == (12,)
            assert (np.diff(indices) > 0).all()  # sorted and unique
            assert indices.min() >= 0 and indices.max() < 50

    def test_m_equals_n_selects_every_row(self, rng):
        X = rng.normal(size=(30, 3))
        for strategy in LANDMARK_STRATEGIES:
            indices = select_landmarks(X, 30, strategy=strategy, seed=0)
            np.testing.assert_array_equal(indices, np.arange(30))

    def test_deterministic_in_seed(self, rng):
        X = rng.normal(size=(60, 5))
        for strategy in LANDMARK_STRATEGIES:
            a = select_landmarks(X, 15, strategy=strategy, seed=7)
            b = select_landmarks(X, 15, strategy=strategy, seed=7)
            np.testing.assert_array_equal(a, b)

    def test_duplicate_points_still_complete(self):
        # Every row identical: D² mass hits zero and selection must fall
        # back to uniform over the unchosen rows instead of looping.
        X = np.ones((20, 3))
        for strategy in ("kmeans++", "farthest"):
            indices = select_landmarks(X, 8, strategy=strategy, seed=1)
            assert len(np.unique(indices)) == 8

    def test_exclude_columns_drive_selection(self, rng):
        # With all signal in column 0 and column 0 excluded, farthest-point
        # selection on the remaining constant columns degenerates — it must
        # still return a valid index set.
        X = np.column_stack([rng.normal(size=40) * 100, np.ones(40), np.ones(40)])
        indices = select_landmarks(X, 10, strategy="farthest", seed=0, exclude=[0])
        assert len(np.unique(indices)) == 10

    def test_validation(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValidationError):
            select_landmarks(X, 1)
        with pytest.raises(ValidationError):
            select_landmarks(X, 11)
        with pytest.raises(ValidationError):
            select_landmarks(X, 5, strategy="magic")


def _reference_select_landmarks(X, n_landmarks, *, strategy, seed, exclude=None):
    """The unpruned selection loop: every new landmark recomputes the
    distance from every row (O(n·f) per landmark), sampling through
    ``Generator.choice``. Valid inputs only."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    if strategy == "uniform" or n_landmarks == n:
        return np.sort(rng.choice(n, size=n_landmarks, replace=False))
    view = X
    if exclude is not None:
        view = X[:, np.setdiff1d(np.arange(X.shape[1]), np.asarray(exclude))]

    def sq_distances(center):
        delta = view - center[None, :]
        return np.einsum("ij,ij->i", delta, delta)

    chosen = np.empty(n_landmarks, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    d2 = sq_distances(view[chosen[0]])
    for i in range(1, n_landmarks):
        total = float(d2.sum())
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(n), chosen[:i])
            chosen[i:] = rng.choice(remaining, size=n_landmarks - i, replace=False)
            break
        if strategy == "kmeans++":
            next_index = int(rng.choice(n, p=d2 / total))
        else:
            next_index = int(np.argmax(d2))
        chosen[i] = next_index
        np.minimum(d2, sq_distances(view[next_index]), out=d2)
    return np.sort(chosen)


def _golden_selection_inputs():
    """(X, exclude, m) per layout/degeneracy the golden digests pin."""
    rng = np.random.default_rng(2024)
    centres = rng.normal(scale=6.0, size=(5, 12))
    X = centres[rng.integers(0, 5, size=300)] + rng.normal(size=(300, 12))
    ties = rng.integers(0, 3, size=(240, 3)).astype(float)
    return {
        "c_order": (X, None, 32),
        "f_order": (np.asfortranarray(X), None, 32),
        "exclude": (X, [0], 32),
        "ties": (ties, None, 32),
        "duplicates": (np.ones((40, 4)), None, 10),
    }


def _selection_family(count):
    """Seeded (X, m, strategy, exclude) cases: clustered, tie-heavy,
    duplicated, far-scaled and float32 data in C, F, strided, reversed and
    column-subset layouts."""
    for k in range(count):
        r = np.random.default_rng(7_000 + k)
        n, f = int(r.integers(2, 160)), int(r.integers(1, 16))
        kind = k % 7
        if kind == 0:
            X = r.normal(size=(n, f))
        elif kind == 1:
            centres = r.normal(scale=8.0, size=(int(r.integers(1, 8)), f))
            X = centres[r.integers(0, len(centres), n)]
            X = X + r.normal(scale=0.3, size=(n, f))
        elif kind == 2:
            X = r.integers(0, 3, size=(n, f)).astype(float)
        elif kind == 3:
            X = np.repeat(r.normal(size=(n // 4 + 1, f)), 4, axis=0)[:n]
        elif kind == 4:
            X = r.normal(size=(n, f)).astype(np.float32)
        elif kind == 5:
            X = r.normal(size=(n, f)) * 10.0 ** r.uniform(-4, 4, size=f)
        else:  # far-scaled, down to subnormal squared distances
            X = r.normal(size=(n, f)) * 10.0 ** float(
                r.choice([100.0, 150.0, -150.0, -160.0])
            )
        layout = k // 7 % 6
        if layout == 1:
            X = np.asfortranarray(X)
        elif layout == 2:
            X = np.vstack([X, X])[::2]
        elif layout == 3:
            X = np.repeat(X, 2, axis=1)[:, ::2]
        elif layout == 4:
            X = np.asfortranarray(np.vstack([X, X]))[:n]
        elif layout == 5:
            X = X[::-1]
        exclude = None
        if f >= 2 and r.random() < 0.4:
            exclude = sorted(set(r.integers(0, f, size=int(r.integers(1, f))).tolist()))
        m = int(r.integers(2, n + 1))
        if r.random() < 0.7:
            m = max(2, min(m, n // 3))
        yield X, m, ("kmeans++", "farthest")[k // 42 % 2], exclude


class TestSelectLandmarksExact:
    """Pruned selection is the unpruned loop, bit for bit.

    :func:`select_landmarks` skips rows that Elkan's triangle-inequality
    bound proves cannot get closer to a new landmark, and samples with an
    inlined ``Generator.choice``. Neither may change an index or the
    generator's state after the call.
    """

    # sha256 of (indices, generator state after the call) per strategy and
    # input, captured with the unpruned loop before pruning landed.
    GOLDEN = {
        "kmeans++/c_order": "1fa3011f8ab670391bd6e4ce64be58abe8d376c90bd5024ce566d691af9a2258",
        "kmeans++/f_order": "1fa3011f8ab670391bd6e4ce64be58abe8d376c90bd5024ce566d691af9a2258",
        "kmeans++/exclude": "50dd37ffa9f721399154403c70dcc7880e5019e04a0f7e831241b7b5b6ca5db9",
        "kmeans++/ties": "9cc0b03cb3ffc0f33c4a58c509dca0b61e86fef560c65ef56a822bd2aa7581ca",
        "kmeans++/duplicates": "eb613d7a325f21bdc0060f2449758bb88653577f0c41f57dee122127d819c47a",
        "farthest/c_order": "e4c8debc580f4c96e93a84423ce33320594f2370982d5b5a7a65c0442161fba9",
        "farthest/f_order": "e4c8debc580f4c96e93a84423ce33320594f2370982d5b5a7a65c0442161fba9",
        "farthest/exclude": "08d367d599bb97566e323f40ff317513613361f3f7a8b77568b5370a805fd433",
        "farthest/ties": "bfe8aad29ca76148137620eb1dbd5f30b599cb50b08a2ecf61206dc646e30fd3",
        "farthest/duplicates": "eb613d7a325f21bdc0060f2449758bb88653577f0c41f57dee122127d819c47a",
    }

    @pytest.mark.parametrize("key", list(GOLDEN))
    def test_golden_digests(self, key):
        strategy, name = key.split("/")
        X, exclude, m = _golden_selection_inputs()[name]
        rng = np.random.default_rng(3)
        indices = select_landmarks(X, m, strategy=strategy, seed=rng, exclude=exclude)
        state = json.dumps(rng.bit_generator.state, sort_keys=True)
        payload = np.asarray(indices, dtype="<i8").tobytes() + state.encode()
        assert hashlib.sha256(payload).hexdigest() == self.GOLDEN[key]

    def test_matches_unpruned_reference(self):
        for case, (X, m, strategy, exclude) in enumerate(_selection_family(168)):
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            got = select_landmarks(X, m, strategy=strategy, seed=ours, exclude=exclude)
            want = _reference_select_landmarks(
                X, m, strategy=strategy, seed=theirs, exclude=exclude
            )
            np.testing.assert_array_equal(got, want, err_msg=f"case {case}")
            assert ours.bit_generator.state == theirs.bit_generator.state, case

    def test_pruned_and_full_updates_match_reference(self, monkeypatch):
        # Clustered rows are mostly ruled out and take the gathered update;
        # isotropic 48-dimensional rows are almost never ruled out and take
        # the full pass. Both must be the unpruned loop, bit for bit.
        from repro.core import approx

        gathered = []
        gather = approx._sq_distances_of_rows

        def counting(view, rows, center):
            gathered.append(rows.size)
            return gather(view, rows, center)

        monkeypatch.setattr(approx, "_sq_distances_of_rows", counting)
        rng = np.random.default_rng(5)
        centres = rng.normal(scale=8.0, size=(6, 12))
        clustered = centres[rng.integers(0, 6, 1500)] + rng.normal(size=(1500, 12))
        isotropic = rng.normal(size=(1500, 48))
        m = 60
        for X, exclude, full in (
            (clustered, None, False),
            (clustered, [0], False),
            (isotropic, None, True),
            (isotropic, [0], True),
        ):
            for strategy in ("kmeans++", "farthest"):
                gathered.clear()
                ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
                got = select_landmarks(
                    X, m, strategy=strategy, seed=ours, exclude=exclude
                )
                want = _reference_select_landmarks(
                    X, m, strategy=strategy, seed=theirs, exclude=exclude
                )
                np.testing.assert_array_equal(got, want)
                assert ours.bit_generator.state == theirs.bit_generator.state
                full_passes = m - 2 - len(gathered)
                assert (full_passes > len(gathered)) == full, (strategy, full_passes)

    # Seeds whose subnormal squared distances (rows at ~1e-160) round with
    # an absolute, not relative, error: pruning them with the relative
    # slack alone picks different landmarks.
    @pytest.mark.parametrize("seed", [278, 1048, 1056, 1484, 1590, 1668])
    def test_subnormal_distances_match_reference(self, seed):
        r = np.random.default_rng(seed)
        n, f = int(r.integers(2, 120)), int(r.integers(1, 6))
        scale = 10.0 ** r.uniform(-163, -154)
        X = r.normal(size=(n, f)) * scale
        if seed % 2:
            X = r.integers(0, 4, size=(n, f)) * scale
            X = X + r.normal(size=(n, f)) * scale * 1e-3
        m = int(r.integers(2, n + 1))
        strategy = ("kmeans++", "farthest")[seed % 2]
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            select_landmarks(X, m, strategy=strategy, seed=ours),
            _reference_select_landmarks(X, m, strategy=strategy, seed=theirs),
        )
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_row_subset_distances_are_bitwise(self):
        # einsum rounds by layout: a row subset must be summed like the
        # full view it came from, a lone row included.
        from repro.core.approx import _min_sq_distances, _sq_distances_of_rows

        rng = np.random.default_rng(23)
        for f in (1, 4, 9, 13, 33):
            base = rng.normal(size=(101, 2 * f + 1))
            base *= 10.0 ** rng.uniform(-3, 3, size=2 * f + 1)
            for view in (
                np.ascontiguousarray(base[:, :f]),
                np.asfortranarray(base[:, :f]),
                base[:, np.arange(f)],
                base[::2, ::2][:, :f],
                np.asfortranarray(base)[3:90, :f],
                base[::-1, :f],
            ):
                center = view[7]
                full = _min_sq_distances(view, center)
                for size in (0, 1, 2, 5, 40):
                    rows = np.sort(rng.choice(view.shape[0], size, replace=False))
                    np.testing.assert_array_equal(
                        _sq_distances_of_rows(view, rows, center), full[rows]
                    )

    def test_inlined_sampler_matches_generator_choice(self):
        from repro.core.approx import _d2_sample

        source = np.random.default_rng(17)
        for case in range(300):
            n = int(source.integers(1, 400))
            d2 = source.random(n) * 10.0 ** source.uniform(-200, 200)
            d2[source.random(n) < source.uniform(0, 0.9)] = 0.0
            d2[int(source.integers(n))] += 1.0 if case % 3 else 1e-300
            total = float(d2.sum())
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            for _ in range(3):
                assert _d2_sample(d2, total, ours) == int(
                    theirs.choice(n, p=d2 / total)
                ), case
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("strategy", ["kmeans++", "farthest"])
    def test_overflowing_distances_rejected(self, strategy):
        # Finite rows whose squared distances overflow float64: k-means++
        # used to leak numpy's "Probabilities contain NaN", farthest to
        # return the argmax over all-inf distances.
        X = np.random.default_rng(0).normal(size=(50, 3)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="overflow"):
                select_landmarks(X, 5, strategy=strategy, seed=0)

    def test_refresh_selection_is_traced_inside_plan_refresh(self, tmp_path):
        data = simulate_blobs(300, n_features=5, seed=11)
        w_fair = between_group_quantile_graph(
            data.side_information, data.s, n_quantiles=6
        )
        drifted = data.X[::5] + 6.0

        def refreshed_digests():
            estimator = PFR(
                n_components=3, gamma=0.5, extension="nystrom", landmarks=80
            )
            plan = LandmarkPlan.for_estimator(estimator, data.X, w_fair)
            plan.fit(estimator)
            plan.extend(drifted)
            return plan.refresh().stage_digests()

        untraced = refreshed_digests()
        with tracing(tmp_path / "refresh.jsonl"):
            traced = refreshed_digests()
        assert traced == untraced
        spans = [r for r in read_trace(tmp_path / "refresh.jsonl")
                 if r["type"] == "span"]
        refresh = [r for r in spans if r["name"] == "plan.refresh"]
        assert len(refresh) == 1
        inner = [
            r for r in spans
            if r["name"] == "plan.landmarks"
            and r["parent_id"] == refresh[0]["span_id"]
        ]
        assert len(inner) == 1
        assert inner[0]["attrs"]["n"] == drifted.shape[0]
        # The root fit's selection and the landmark solve are traced too.
        root = [r for r in spans if r["name"] == "plan.landmarks"
                and r["attrs"]["n"] == data.X.shape[0]]
        assert len(root) == 1
        assert any(r["name"] == "plan.solve" for r in spans)


class TestParityAtFullBudget:
    """m = n landmark fits must equal the exact solve to 1e-8."""

    @pytest.mark.parametrize("strategy", LANDMARK_STRATEGIES)
    def test_pfr_m_equals_n(self, blob_problem, strategy):
        X, w_fair, X_eval = blob_problem
        exact = PFR(n_components=3, gamma=0.5).fit(X, w_fair)
        landmark = PFR(
            n_components=3,
            gamma=0.5,
            extension="nystrom",
            landmarks=X.shape[0],
            landmark_strategy=strategy,
        ).fit(X, w_fair)
        np.testing.assert_allclose(
            landmark.components_, exact.components_, atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            landmark.eigenvalues_, exact.eigenvalues_, atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            landmark.transform(X_eval), exact.transform(X_eval), atol=PARITY_TOL
        )

    def test_kernel_pfr_m_equals_n(self, blob_problem):
        X, w_fair, X_eval = blob_problem
        exact = KernelPFR(n_components=3, gamma=0.5).fit(X, w_fair)
        landmark = KernelPFR(
            n_components=3,
            gamma=0.5,
            extension="nystrom",
            landmarks=X.shape[0],
        ).fit(X, w_fair)
        np.testing.assert_allclose(
            landmark.alphas_, exact.alphas_, atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            landmark.transform(X_eval), exact.transform(X_eval), atol=PARITY_TOL
        )

    def test_landmarks_above_n_clamp_to_exact(self, blob_problem):
        X, w_fair, _ = blob_problem
        exact = PFR(n_components=2, gamma=0.3).fit(X, w_fair)
        clamped = PFR(
            n_components=2, gamma=0.3, extension="nystrom", landmarks=10**6
        ).fit(X, w_fair)
        np.testing.assert_allclose(
            clamped.components_, exact.components_, atol=PARITY_TOL
        )

    def test_full_budget_shares_stage_digests_with_exact(self, blob_problem):
        # Same landmark rows ⇒ byte-identical graph inputs ⇒ the downstream
        # digest chain must coincide with the exact plan's.
        X, w_fair, _ = blob_problem
        exact = PFR(n_components=2).fit(X, w_fair)
        landmark = PFR(
            n_components=2, extension="nystrom", landmarks=X.shape[0]
        ).fit(X, w_fair)
        assert "landmarks" in landmark.plan_digests_
        for stage in ("graph", "laplacian", "projection", "solve"):
            assert landmark.plan_digests_[stage] == exact.plan_digests_[stage]


class TestFidelityMonotone:
    """Aligned-cosine fidelity must improve with the landmark budget."""

    BUDGETS = (10, 25, 60, 150, 400)

    def _fidelity_curve(self, cls, blob_problem):
        X, w_fair, X_eval = blob_problem
        exact = cls(n_components=3, gamma=0.5).fit(X, w_fair)
        Z_ref = exact.transform(X_eval)
        curve = []
        for m in self.BUDGETS:
            model = cls(
                n_components=3,
                gamma=0.5,
                extension="nystrom",
                landmarks=m,
                landmark_strategy="kmeans++",
                landmark_seed=0,
            ).fit(X, w_fair)
            curve.append(embedding_fidelity(Z_ref, model.transform(X_eval)))
        return curve

    @pytest.mark.parametrize("cls", [PFR, KernelPFR], ids=lambda c: c.__name__)
    def test_monotone_and_converges_to_one(self, cls, blob_problem):
        curve = self._fidelity_curve(cls, blob_problem)
        assert all(b > a for a, b in zip(curve, curve[1:])), curve
        assert curve[-1] > 1.0 - PARITY_TOL  # m = n is the exact solve
        assert curve[0] > 0.5  # even 10 landmarks beat noise


class TestLandmarkPlan:
    def test_sweep_reuses_subplan_solves(self, blob_problem):
        X, w_fair, _ = blob_problem
        template = PFR(n_components=3, extension="nystrom", landmarks=80)
        plan = LandmarkPlan.for_estimator(template, X, w_fair)
        swept = []
        for gamma in (0.0, 0.5, 1.0):
            model = PFR(
                n_components=3, gamma=gamma, extension="nystrom", landmarks=80
            )
            plan.fit(model)
            swept.append(model)
        for model in swept:
            fresh = PFR(
                n_components=3,
                gamma=model.gamma,
                extension="nystrom",
                landmarks=80,
            ).fit(X, w_fair)
            np.testing.assert_allclose(
                model.components_, fresh.components_, atol=PARITY_TOL
            )

    def test_fit_path_with_landmark_template(self, blob_problem):
        X, w_fair, _ = blob_problem
        template = PFR(n_components=3, extension="nystrom", landmarks=60)
        models = fit_path(X, w_fair, gammas=[0.0, 1.0], estimator=template)
        assert len(models) == 2
        for model in models:
            assert model.landmark_indices_ is not None
            assert model.landmark_indices_.shape == (60,)
            assert "landmarks" in model.plan_digests_

    def test_plan_for_estimator_dispatch(self, blob_problem):
        X, w_fair, _ = blob_problem
        exact_plan = plan_for_estimator(PFR(), X, w_fair)
        assert isinstance(exact_plan, SpectralFitPlan)
        landmark_plan = plan_for_estimator(
            PFR(extension="nystrom", landmarks=50), X, w_fair
        )
        assert isinstance(landmark_plan, LandmarkPlan)

    def test_exact_plan_rejects_nystrom_estimator(self, blob_problem):
        X, w_fair, _ = blob_problem
        plan = SpectralFitPlan.for_estimator(PFR(), X, w_fair)
        with pytest.raises(ValidationError, match="LandmarkPlan"):
            plan.fit(PFR(extension="nystrom", landmarks=50))

    def test_landmark_plan_rejects_mismatched_estimator(self, blob_problem):
        X, w_fair, _ = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(extension="nystrom", landmarks=50), X, w_fair
        )
        with pytest.raises(ValidationError, match="landmarks"):
            plan.fit(PFR(extension="nystrom", landmarks=40))
        with pytest.raises(ValidationError, match="nystrom"):
            plan.fit(PFR())

    def test_precomputed_w_x_plan_rejects_other_knn_settings(self, blob_problem):
        # A precomputed w_x takes the k-NN settings out of the solve, but
        # the drift scorer reads them off the fitted estimator: a plan
        # that fit other settings scored rows unlike scorer_for(estimator).
        X, w_fair, _ = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(extension="nystrom", landmarks=60), X, w_fair,
            w_x=knn_graph(X, n_neighbors=10),
        )
        for name, value in (
            ("exclude_columns", [0]), ("n_neighbors", 5), ("bandwidth", 2.0),
        ):
            estimator = PFR(extension="nystrom", landmarks=60, **{name: value})
            with pytest.raises(ValidationError, match=f"{name}=.*differs"):
                plan.fit(estimator)
            assert not hasattr(estimator, "components_")
        model = plan.fit(PFR(extension="nystrom", landmarks=60))
        np.testing.assert_array_equal(
            plan.score_rows(X[:40]), scorer_for(model)(X[:40])
        )

    def test_extension_validation(self, blob_problem):
        X, w_fair, _ = blob_problem
        with pytest.raises(ValidationError, match="extension"):
            PFR(extension="approximate").fit(X, w_fair)
        with pytest.raises(ValidationError, match="landmarks"):
            PFR(extension="nystrom").fit(X, w_fair)
        with pytest.raises(ValidationError, match="strategy"):
            PFR(
                extension="nystrom", landmarks=20, landmark_strategy="magic"
            ).fit(X, w_fair)

    def test_kernel_components_capacity_is_landmark_count(self, blob_problem):
        X, w_fair, _ = blob_problem
        with pytest.raises(ValidationError, match="n_components"):
            KernelPFR(
                n_components=30, extension="nystrom", landmarks=20
            ).fit(X, w_fair)


class TestNystromExtend:
    def test_weighted_average_stays_in_convex_hull(self, rng):
        X_landmarks = rng.normal(size=(30, 4))
        Z_landmarks = rng.normal(size=(30, 2))
        Z = nystrom_extend(
            rng.normal(size=(12, 4)), X_landmarks, Z_landmarks, n_neighbors=5
        )
        assert Z.shape == (12, 2)
        assert Z.min() >= Z_landmarks.min() - 1e-12
        assert Z.max() <= Z_landmarks.max() + 1e-12

    def test_far_query_falls_back_to_nearest_landmark(self, rng):
        # A query so far away that every heat-kernel weight underflows must
        # land on its single nearest landmark, not on a zero vector.
        X_landmarks = rng.normal(size=(10, 3))
        Z_landmarks = rng.normal(size=(10, 2))
        far = np.full((1, 3), 1e6)
        Z = nystrom_extend(far, X_landmarks, Z_landmarks, n_neighbors=4)
        nearest = np.argmin(np.sum((X_landmarks - far) ** 2, axis=1))
        np.testing.assert_allclose(Z[0], Z_landmarks[nearest])

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError, match="Z_landmarks"):
            nystrom_extend(
                rng.normal(size=(5, 3)),
                rng.normal(size=(10, 3)),
                rng.normal(size=(9, 2)),
            )


class TestPersistence:
    @pytest.mark.parametrize("cls", [PFR, KernelPFR], ids=lambda c: c.__name__)
    def test_landmark_model_round_trips(self, cls, blob_problem, tmp_path):
        X, w_fair, X_eval = blob_problem
        model = cls(
            n_components=2, gamma=0.4, extension="nystrom", landmarks=60
        ).fit(X, w_fair)
        loaded = load_model(save_model(model, tmp_path / "landmark"))
        assert loaded.extension == "nystrom"
        assert loaded.landmarks == 60
        np.testing.assert_array_equal(
            loaded.landmark_indices_, model.landmark_indices_
        )
        assert loaded.plan_digests_ == model.plan_digests_
        np.testing.assert_allclose(
            loaded.transform(X_eval), model.transform(X_eval), atol=1e-12
        )

    def test_exact_model_keeps_none_landmarks(self, blob_problem, tmp_path):
        X, w_fair, _ = blob_problem
        model = PFR(n_components=2).fit(X, w_fair)
        loaded = load_model(save_model(model, tmp_path / "exact"))
        assert loaded.landmark_indices_ is None


class TestRowAgreement:
    def test_identical_embeddings_score_one(self, rng):
        Z = rng.normal(size=(20, 3))
        np.testing.assert_allclose(row_agreement(Z, Z), 1.0, atol=1e-12)

    def test_scale_mismatch_collapses_the_score(self, rng):
        # Pure cosine is scale-blind; the norm-ratio factor is what makes
        # the drift signal catch mean-shifted rows whose parametric image
        # leaves the landmark hull with an inflated norm.
        Z = rng.normal(size=(20, 3))
        scores = row_agreement(Z, 10.0 * Z)
        np.testing.assert_allclose(scores, 0.1, atol=1e-12)

    def test_zero_rows_do_not_blow_up(self):
        Z = np.zeros((3, 2))
        assert np.isfinite(row_agreement(Z, Z)).all()


class TestStreamingExtend:
    """extend() scores and buffers; refresh() warm-starts a child plan."""

    @pytest.fixture(scope="class")
    def fitted_plan_setup(self):
        data = simulate_blobs(300, n_features=5, seed=11)
        w_fair = between_group_quantile_graph(
            data.side_information, data.s, n_quantiles=6
        )
        estimator = PFR(
            n_components=3, gamma=0.5, extension="nystrom", landmarks=80
        )
        plan = LandmarkPlan.for_estimator(estimator, data.X, w_fair)
        plan.fit(estimator)
        rng = np.random.default_rng(13)
        in_dist = data.X[rng.choice(data.X.shape[0], 60, replace=False)]
        drifted = in_dist + 6.0
        return plan, estimator, in_dist, drifted

    def test_unfitted_plan_rejects_lifecycle_extend(self, blob_problem):
        X, w_fair, X_eval = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(n_components=2, extension="nystrom", landmarks=40), X, w_fair
        )
        with pytest.raises(ValidationError, match="fitted operating point"):
            plan.extend(X_eval)

    def test_scores_discriminate_drift(self, fitted_plan_setup):
        plan, _, in_dist, drifted = fitted_plan_setup
        assert np.mean(plan.score_rows(in_dist)) > np.mean(
            plan.score_rows(drifted)
        ) + 0.2

    def test_extend_buffers_and_reports(self, fitted_plan_setup):
        plan, _, in_dist, drifted = fitted_plan_setup
        before = plan.n_pending
        scores = plan.extend(in_dist[:10])
        np.testing.assert_array_equal(scores, plan.score_rows(in_dist[:10]))
        assert plan.n_pending == before + 10

    def test_refresh_folds_pending_into_child(self, fitted_plan_setup):
        plan, estimator, _, drifted = fitted_plan_setup
        pending_before = plan.n_pending
        plan.extend(drifted)
        child = plan.refresh()
        assert plan.n_pending == 0  # buffer consumed
        q = pending_before + drifted.shape[0]
        assert child.X.shape[0] == plan.X.shape[0] + q
        assert child.n_landmarks > plan.n_landmarks
        assert child.parent is plan
        # New landmarks come from the pending rows only.
        new_indices = child.indices_[len(plan.indices_):]
        assert (new_indices >= plan.X.shape[0]).all()
        # The child fits a re-budgeted clone and serves unseen rows.
        refit = PFR(
            n_components=3, gamma=0.5, extension="nystrom",
            landmarks=child.n_landmarks,
        )
        child.fit(refit)
        Z = refit.transform(drifted[:5])
        assert Z.shape == (5, 3) and np.isfinite(Z).all()
        # The once-drifted region scores in-distribution under the child.
        assert np.mean(child.score_rows(drifted)) > np.mean(
            plan.score_rows(drifted)
        )

    def test_child_digests_chain_off_parent(self, fitted_plan_setup):
        plan, _, in_dist, _ = fitted_plan_setup
        plan.extend(in_dist)
        child = plan.refresh()
        parent_digests = plan.stage_digests()
        child_digests = child.stage_digests()
        assert "extend" not in parent_digests  # roots emit legacy keys only
        assert "extend" in child_digests
        assert child_digests["landmarks"] != parent_digests["landmarks"]

    def test_extend_leaves_parent_digests_untouched(self, blob_problem):
        # Acceptance: with the refresh feature unused (or merely buffering),
        # existing stage digests stay byte-identical.
        X, w_fair, X_eval = blob_problem
        estimator = PFR(n_components=2, extension="nystrom", landmarks=40)
        plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
        plan.fit(estimator)
        before = dict(plan.stage_digests())
        plan.extend(X_eval)
        assert plan.stage_digests() == before

    def test_refresh_without_pending_raises(self, blob_problem):
        X, w_fair, _ = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(n_components=2, extension="nystrom", landmarks=40), X, w_fair
        )
        with pytest.raises(ValidationError, match="no pending rows"):
            plan.refresh()

    def test_w_fair_new_rides_along(self, fitted_plan_setup):
        plan, _, _, drifted = fitted_plan_setup
        q = drifted.shape[0]
        w_new = np.zeros((q, q))
        w_new[0, 1] = w_new[1, 0] = 1.0
        plan.extend(drifted, w_fair_new=w_new)
        assert plan.n_pending >= q
        child = plan.refresh()
        assert child.subplan.w_fair.shape[0] == child.n_landmarks

    def test_w_fair_new_shape_mismatch_raises(self, fitted_plan_setup):
        plan, _, in_dist, _ = fitted_plan_setup
        with pytest.raises(ValidationError, match="w_fair_new"):
            plan.extend(in_dist, w_fair_new=np.zeros((3, 3)))


def _assert_parent_blocks_kept(parent, child):
    """The child's landmark graphs start with the parent's, bit for bit.

    A refresh reuses the parent's m×m data-graph block and keeps its
    fairness block; the fidelity floors below cannot see either go
    missing (a random projection already clears them).
    """
    def dense(W):
        return W.toarray() if sp.issparse(W) else np.asarray(W)

    m = parent.n_landmarks
    for key in ("w_x", "w_fair"):
        np.testing.assert_array_equal(
            dense(child.subplan.graph[key])[:m, :m],
            dense(parent.subplan.graph[key]),
            err_msg=key,
        )


class TestRefreshMatchesColdRefit:
    """A refreshed child plan stands in for a cold refit on the grown
    corpus, and the drift scores that trigger the refresh see the drift."""

    def test_dense_child_keeps_parent_graph_blocks(self):
        # The sparse case is checked at scale in the test below.
        data = simulate_blobs(300, n_features=5, seed=11)
        w_fair = between_group_quantile_graph(
            data.side_information, data.s, n_quantiles=6
        ).toarray()
        w_x = knn_graph(data.X, n_neighbors=10).toarray()
        estimator = PFR(
            n_components=3, gamma=0.5, extension="nystrom", landmarks=80
        )
        plan = LandmarkPlan.for_estimator(estimator, data.X, w_fair, w_x=w_x)
        plan.fit(estimator)
        plan.extend(data.X[::5] + 6.0)
        child = plan.refresh()
        assert child.n_landmarks > plan.n_landmarks
        for key in ("w_x", "w_fair"):
            assert not sp.issparse(child.subplan.graph[key]), key
        _assert_parent_blocks_kept(plan, child)

    def test_refresh_agrees_with_cold_refit(self):
        n_base, n_pending, n_landmarks = 5000, 500, 200
        data = simulate_blobs(n_base, n_features=12, seed=11)
        w_fair = knn_graph(
            data.side_information[:, None], n_neighbors=8, bandwidth=1.0
        )
        rng = np.random.default_rng(12)
        X_pending = (
            data.X[rng.integers(0, n_base, size=n_pending)]
            + 2.0
            + rng.normal(scale=0.25, size=(n_pending, data.X.shape[1]))
        )

        def estimator(m):
            return PFR(n_components=8, gamma=0.5, extension="nystrom",
                       landmarks=m, landmark_strategy="kmeans++",
                       landmark_seed=0)

        def stale_fraction(plan, rows):
            return np.mean(plan.score_rows(rows) < plan.fidelity_baseline()["p05"])

        plan = LandmarkPlan.for_estimator(estimator(n_landmarks), data.X, w_fair)
        plan.fit(estimator(n_landmarks))
        in_dist = data.X[np.random.default_rng(99).integers(0, n_base, size=512)]
        assert stale_fraction(plan, X_pending) > stale_fraction(plan, in_dist)

        for batch in np.array_split(X_pending, 4):
            plan.extend(batch)
        child = plan.refresh()
        _assert_parent_blocks_kept(plan, child)
        refreshed = child.fit(estimator(child.n_landmarks))
        assert stale_fraction(child, X_pending) < 0.5

        X_full = np.vstack([data.X, X_pending])
        w_fair_full = sp.block_diag(
            [w_fair, sp.csr_matrix((n_pending, n_pending))], format="csr"
        )
        cold = plan_for_estimator(
            estimator(child.n_landmarks), X_full, w_fair_full
        ).fit(estimator(child.n_landmarks))
        X_holdout = X_full[
            np.random.default_rng(7).integers(0, X_full.shape[0], size=200)
        ]
        assert embedding_fidelity(
            cold.transform(X_holdout), refreshed.transform(X_holdout)
        ) >= 0.9


class TestLandmarkBandwidthReuse:
    """A plan resolves its landmark bandwidth once and reuses it.

    The cached bandwidth, and every score computed with it, must stay
    bitwise equal to the path that re-resolves ``bandwidth=None`` inside
    :func:`nystrom_extend` on each call, on a root plan and on a refreshed
    child, whose refresh graph takes its own median over a possibly
    non-contiguous column view.
    """

    # sha256 of the root's and the child's stage digests below, captured
    # before the bandwidth was cached: the cache must never reach them.
    DIGESTS = {
        None: "11ebd44c383e2919dfcd96adccaad5fd9cf7f71141699192258e82beefa2e7e7",
        (0,): "72f135fc5c22aadf2f2aa396418ab96153a626fbf96bc1254912c518cd5318ec",
    }

    @staticmethod
    def _reference(plan, estimator, X):
        """Scores through nystrom_extend(bandwidth=None)."""
        sub = plan.subplan
        extension = nystrom_extend(
            X,
            plan.X_landmarks_,
            estimator.transform(plan.X_landmarks_),
            n_neighbors=min(sub.n_neighbors, plan.n_landmarks),
            bandwidth=None,
            exclude=sub.exclude_columns,
        )
        return row_agreement(extension, estimator.transform(X))

    @pytest.mark.parametrize("exclude", list(DIGESTS), ids=["default", "exclude"])
    def test_root_and_child_match_the_uncached_path(self, exclude):
        data = simulate_blobs(300, n_features=8, seed=3)
        w_fair = between_group_quantile_graph(
            data.side_information, data.s, n_quantiles=6
        )
        params = dict(
            n_components=3, gamma=0.5, extension="nystrom",
            exclude_columns=None if exclude is None else list(exclude),
        )
        root_estimator = PFR(landmarks=60, **params)
        root = LandmarkPlan.for_estimator(root_estimator, data.X, w_fair)
        root.fit(root_estimator)
        X = data.X[::4] + 0.5
        root.extend(X + 6.0)
        child = root.refresh()
        child_estimator = PFR(landmarks=child.n_landmarks, **params)
        child.fit(child_estimator)

        for plan, estimator in ((root, root_estimator), (child, child_estimator)):
            scores = self._reference(plan, estimator, X)
            assert plan._landmark_bandwidth() == resolve_bandwidth(
                plan.X_landmarks_, None, exclude=plan.subplan.exclude_columns
            )
            np.testing.assert_array_equal(plan.score_rows(X), scores)
            assert holdout_agreement(plan, X) == float(np.mean(scores))
            np.testing.assert_array_equal(plan.extend(X), scores)
        chain = json.dumps(
            [root.stage_digests(), child.stage_digests()], sort_keys=True
        )
        assert (
            hashlib.sha256(chain.encode()).hexdigest()
            == self.DIGESTS[exclude]
        )


class TestStreamingRegressions:
    """Edge cases the streaming layer flushed out (ISSUE 9 satellite b)."""

    def test_select_landmarks_rejects_non_integer(self, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValidationError, match="integer"):
            select_landmarks(X, 7.5)

    def test_select_landmarks_rejects_m_over_n(self, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValidationError, match=r"\[2, n=20\]"):
            select_landmarks(X, 21)
        with pytest.raises(ValidationError, match=r"\[2, n=20\]"):
            select_landmarks(X, 1)

    def test_nystrom_extend_rejects_empty_batch(self, rng):
        with pytest.raises(ValidationError, match="X_new"):
            nystrom_extend(
                np.empty((0, 3)),
                rng.normal(size=(10, 3)),
                rng.normal(size=(10, 2)),
            )

    def test_nystrom_extend_single_landmark_needs_bandwidth(self, rng):
        X_landmarks = rng.normal(size=(1, 3))
        Z_landmarks = rng.normal(size=(1, 2))
        with pytest.raises(ValidationError, match="bandwidth"):
            nystrom_extend(rng.normal(size=(4, 3)), X_landmarks, Z_landmarks)
        # With an explicit bandwidth the degenerate case is well-defined:
        # every query lands on the lone landmark's embedding.
        Z = nystrom_extend(
            rng.normal(size=(4, 3)), X_landmarks, Z_landmarks, bandwidth=1.0
        )
        np.testing.assert_allclose(Z, np.repeat(Z_landmarks, 4, axis=0))

    def test_extend_rejects_zero_row_batch(self, blob_problem):
        X, w_fair, _ = blob_problem
        estimator = PFR(n_components=2, extension="nystrom", landmarks=40)
        plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
        plan.fit(estimator)
        with pytest.raises(ValidationError, match="X_new"):
            plan.extend(np.empty((0, X.shape[1])))

    def test_extend_rejects_feature_mismatch(self, blob_problem):
        X, w_fair, _ = blob_problem
        estimator = PFR(n_components=2, extension="nystrom", landmarks=40)
        plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
        plan.fit(estimator)
        with pytest.raises(ValidationError, match="features"):
            plan.extend(np.zeros((4, X.shape[1] + 1)))
