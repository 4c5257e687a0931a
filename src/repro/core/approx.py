"""Landmark-Nyström scaling layer: fit PFR far beyond the paper's n.

The paper's PFR solves one trace-minimization eigenproblem over *all* n
training individuals (Equations 7–8). That is transductive and — in the
kernel case — O(n³) time / O(n²) memory, fine for COMPAS (n ≈ 9k) but a
dead end for population-scale deployments. This module implements the
standard escape hatch for Laplacian-eigenmap-style methods: solve the
eigenproblem on ``m ≪ n`` *landmarks* and extend the solution to everyone
else.

:class:`LandmarkPlan` runs three steps:

1. **Select** ``m`` landmarks from the n training rows
   (:func:`select_landmarks`): uniform sampling, k-means++ D²-sampling, or
   farthest-point traversal — all seeded, all computed on the
   non-protected columns like the paper's ``Np``.
2. **Solve** the fused k-NN + fairness eigenproblem *only on the
   landmarks* by instantiating the PR-2 :class:`~repro.core.SpectralFitPlan`
   over the landmark rows and the landmark-restricted fairness graph —
   every staged-fit feature (γ/d sweep caching, eigengap-guarded slicing,
   chained digests) carries over for free.
3. **Extend** out of sample. The landmark solve yields a *parametric*
   map — ``Z = X V`` for linear PFR, ``Z = K(X, X_landmarks) A`` for
   kernel PFR (the classic Nyström extension of the eigenvectors) — so
   ``transform(X_new)`` works for arbitrary unseen rows. For diagnostics
   and for models without a parametric form, :func:`nystrom_extend` offers
   the graph-smoothing alternative built on
   :func:`repro.graphs.knn_cross`.

After a fit the plan also carries the lifecycle state of a served model:
:meth:`LandmarkPlan.extend` scores arriving rows and buffers them, and
:meth:`LandmarkPlan.refresh` folds the buffered rows into a warm-started
child plan. When to refresh is not decided here; that is
:class:`repro.lifecycle.RefreshPolicy`'s job.

Estimator entry point: ``PFR(extension="nystrom", landmarks=m)`` (same for
:class:`~repro.core.KernelPFR`). Fitted models record a ``landmarks``
stage digest in ``plan_digests_`` ahead of the usual graph → laplacian →
projection → solve chain, so serving manifests can audit *which* subsample
produced a representation. ``benchmarks/bench_landmark.py`` quantifies the
fidelity/speed trade-off.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from .._validation import check_array, check_random_state, check_symmetric
from ..exceptions import ValidationError
from ..graphs.knn import (
    _distance_view,
    knn_cross,
    knn_graph,
    median_heuristic,
    resolve_bandwidth,
)
from ..obs.trace import span
from .plan import (
    _KNN,
    _LANDMARK,
    Precomputed,
    SpectralFitPlan,
    _check_inputs,
    _check_integer,
    _check_match,
    _plan_kwargs,
    _stage_digest,
)

__all__ = [
    "LANDMARK_STRATEGIES",
    "LandmarkPlan",
    "check_extension_params",
    "embedding_fidelity",
    "nystrom_extend",
    "plan_for_estimator",
    "row_agreement",
    "select_landmarks",
]

LANDMARK_STRATEGIES = ("uniform", "kmeans++", "farthest")

_EXTENSIONS = ("exact", "nystrom")

#: Training rows LandmarkPlan.fidelity_baseline scores (seed 0).
_BASELINE_SAMPLE = 256


def check_extension_params(estimator) -> None:
    """Validate an estimator's ``extension``/``landmark*`` hyper-parameters.

    The one check of these values for ``PFR`` and ``KernelPFR``, run when
    their plan is built: ``extension`` must be ``"exact"`` or
    ``"nystrom"``; the nystrom mode additionally needs an integer
    ``landmarks >= 2`` and a known ``landmark_strategy``.
    """
    if estimator.extension not in _EXTENSIONS:
        raise ValidationError(
            f"extension must be one of {_EXTENSIONS}; got {estimator.extension!r}"
        )
    if estimator.extension == "exact":
        return
    _check_integer("landmarks", estimator.landmarks, 2)
    if estimator.landmark_strategy not in LANDMARK_STRATEGIES:
        raise ValidationError(
            f"unknown landmark strategy {estimator.landmark_strategy!r}; "
            f"use one of {LANDMARK_STRATEGIES}"
        )


def _min_sq_distances(view: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared euclidean distance from every row of ``view`` to ``center``."""
    delta = view - center[None, :]
    return np.einsum("ij,ij->i", delta, delta)


def _sq_distances_of_rows(
    view: np.ndarray, rows: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """``_min_sq_distances(view, center)[rows]``, bit for bit, touching only
    ``rows``.

    einsum sums each row in the order of the operand's fastest axis, so the
    gathered rows keep ``view``'s layout: column-major when its row stride
    is the smaller one. A single gathered row is both C- and F-contiguous
    and would be summed in C order, so it is padded to two. ``take`` is
    several times faster than fancy indexing here, for either layout.
    """
    if abs(view.strides[0]) < abs(view.strides[1]):
        padded = rows if rows.size != 1 else np.repeat(rows, 2)
        sub = view.T.take(padded, axis=1).T
    else:
        sub = view.take(rows, axis=0)
    return _min_sq_distances(sub, center)[: rows.size]


def _d2_sample(d2: np.ndarray, total: float, rng) -> int:
    """``rng.choice(len(d2), p=d2 / total)``, bit for bit and draw for draw.

    numpy's own algorithm (cumulative sum, renormalised by its last entry,
    then one uniform draw located by a right-sided search) without the
    O(n) validation passes ``choice`` spends on ``p``; the caller
    guarantees a finite, positive ``total``.
    """
    cdf = d2 / total
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


# Elkan's lemma (ICML 2003) in squared form: a row x whose nearest centre so
# far is a cannot get closer to a new centre c when ‖c − a‖² ≥ 4‖x − a‖².
# The 1e-6 slack dwarfs the ~1e-15 relative rounding of the computed
# distances. Near the subnormal range rounding is absolute, not relative,
# so no row is skipped on a landmark-to-landmark distance below the floor.
_PRUNE_SCALE = 4.0 * (1.0 + 1e-6)
_PRUNE_FLOOR = 1e-300


def select_landmarks(
    X,
    n_landmarks: int,
    *,
    strategy: str = "kmeans++",
    seed=0,
    exclude=None,
) -> np.ndarray:
    """Choose ``m`` landmark row indices from ``X`` (sorted ascending).

    Parameters
    ----------
    X:
        Feature matrix of shape ``(n, m_features)``.
    n_landmarks:
        Number of landmarks ``m``, ``2 <= m <= n``.
    strategy:
        * ``"uniform"`` — i.i.d. sampling without replacement; cheapest,
          and unbiased for well-mixed data.
        * ``"kmeans++"`` (default) — D²-sampling: each next landmark is
          drawn with probability proportional to its squared distance to
          the nearest landmark so far. Covers clusters proportionally to
          their spread without the farthest-point outlier obsession.
        * ``"farthest"`` — greedy farthest-point traversal; deterministic
          after the seeded start, maximal coverage of the data's extent.
    seed:
        Generator seed; selection is a pure function of ``(X, m, strategy,
        seed, exclude)``.
    exclude:
        Column indices dropped before computing distances (the paper
        excludes protected attributes from neighborhoods, §3.1). Ignored
        by ``"uniform"``.

    Returns
    -------
    ndarray of shape (m,)
        Sorted, unique row indices. Sorting keeps ``m = n`` selections
        byte-identical to the full training set, which is what makes the
        exact-parity guarantee of :class:`LandmarkPlan` trivial to audit.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import select_landmarks
    >>> X = np.random.default_rng(0).normal(size=(100, 3))
    >>> indices = select_landmarks(X, 4, strategy="farthest", seed=1)
    >>> indices.shape, bool(np.all(np.diff(indices) > 0))
    ((4,), True)
    """
    X = check_array(X, name="X", min_samples=2)
    n = X.shape[0]
    if n_landmarks != int(n_landmarks):
        raise ValidationError(
            f"n_landmarks must be an integer; got {n_landmarks!r}"
        )
    n_landmarks = int(n_landmarks)
    if not 2 <= n_landmarks <= n:
        raise ValidationError(
            f"n_landmarks must be in [2, n={n}]; got {n_landmarks}"
        )
    if strategy not in LANDMARK_STRATEGIES:
        raise ValidationError(
            f"unknown landmark strategy {strategy!r}; "
            f"use one of {LANDMARK_STRATEGIES}"
        )
    rng = check_random_state(seed)

    if strategy == "uniform" or n_landmarks == n:
        return np.sort(rng.choice(n, size=n_landmarks, replace=False))

    view = _distance_view(X, exclude)

    chosen = np.empty(n_landmarks, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    # Running minimum squared distance to the chosen set. Each new landmark
    # recomputes only the rows Elkan's bound cannot rule out: ``owner[x]``
    # is the landmark whose distance ``d2[x]`` holds, and x cannot move
    # when the new landmark's squared distance to that landmark exceeds
    # ``bound[x]``. Every skipped row provably keeps its distance, so
    # ``d2`` matches the full O(n·f) update bit for bit. When the bound
    # rules out fewer than half the rows (unclustered or high-dimensional
    # data), one pass over the whole view is cheaper than gathering the
    # rest (the measured crossover is at 50–60% of the rows, for either
    # layout), and it is the plain O(n·f) update. The worst case stays
    # O(n·m·f), plus O(n + i·f) bookkeeping per landmark.
    d2 = _min_sq_distances(view, view[chosen[0]])
    owner = np.zeros(n, dtype=np.int64)
    bound = _PRUNE_SCALE * d2 + _PRUNE_FLOOR
    # The chosen landmarks' coordinates, copied once each: in a column-major
    # view a row spans f cache lines, and gathering all i of them again per
    # landmark measured ~1 ms at i = 500, f = 64, as much as the full pass.
    centers = np.empty((n_landmarks, view.shape[1]))
    centers[0] = view[chosen[0]]
    for i in range(1, n_landmarks):
        total = float(d2.sum())
        if not np.isfinite(total):
            raise ValidationError(
                "squared distances between rows of X overflow float64; "
                "rescale X before selecting landmarks"
            )
        if total <= 0.0:
            # Every remaining point coincides with a landmark; fall back to
            # uniform among the unchosen so selection always completes.
            remaining = np.setdiff1d(np.arange(n), chosen[:i])
            chosen[i:] = rng.choice(
                remaining, size=n_landmarks - i, replace=False
            )
            break
        if strategy == "kmeans++":
            next_index = _d2_sample(d2, total, rng)
        else:  # farthest-point: deterministic argmax after the seeded start
            next_index = int(np.argmax(d2))
        chosen[i] = next_index
        if i == n_landmarks - 1:
            break
        center = view[next_index]
        between = _min_sq_distances(centers[:i], center)
        centers[i] = center
        may_move = between[owner] <= bound
        if 2 * np.count_nonzero(may_move) > n:
            new = _min_sq_distances(view, center)
            rows = np.flatnonzero(new < d2)
            new = new[rows]
        else:
            rows = np.flatnonzero(may_move)
            new = _sq_distances_of_rows(view, rows, center)
            closer = new < d2[rows]
            rows, new = rows[closer], new[closer]
        d2[rows] = new
        owner[rows] = i
        bound[rows] = _PRUNE_SCALE * new + _PRUNE_FLOOR
    return np.sort(chosen)


def nystrom_extend(
    X_new,
    X_landmarks,
    Z_landmarks,
    *,
    n_neighbors: int = 10,
    bandwidth: float | None = None,
    exclude=None,
) -> np.ndarray:
    """Graph-smoothing Nyström extension of a landmark embedding.

    Embeds unseen rows as the heat-kernel-weighted average of their
    ``n_neighbors`` nearest landmarks' embeddings:
    ``z(x) = Σ_j w_j(x) z_j / Σ_j w_j(x)`` with ``w`` from
    :func:`repro.graphs.knn_cross`. This is the generic Laplacian-eigenmap
    out-of-sample rule; PFR-family models prefer their parametric maps
    (``X V`` / ``K A``), but this version needs only landmark coordinates
    and embeddings, so it applies to *any* representation and is what the
    fidelity diagnostics in ``benchmarks/bench_landmark.py`` use as a
    model-free cross-check.

    Parameters
    ----------
    X_new:
        Query rows of shape ``(q, m_features)``.
    X_landmarks, Z_landmarks:
        Landmark coordinates ``(m, m_features)`` and their embedding
        ``(m, d)``.
    n_neighbors, bandwidth, exclude:
        Forwarded to :func:`repro.graphs.knn_cross`; ``n_neighbors`` is
        clamped to the landmark count. ``bandwidth=None`` re-runs an
        O(m²) median over the landmarks on *every* call (and needs at
        least two landmarks); callers extending repeatedly against a
        fixed landmark set should resolve it once with
        :func:`repro.graphs.resolve_bandwidth` and pass it explicitly, as
        :class:`LandmarkPlan` does.

    Returns
    -------
    ndarray of shape (q, d)
        Extended embedding; a query with all-zero weights (heat-kernel
        underflow) falls back to its single nearest landmark's embedding.
    """
    X_new = check_array(X_new, name="X_new")
    X_landmarks = check_array(X_landmarks, name="X_landmarks", min_samples=1)
    Z_landmarks = np.asarray(Z_landmarks, dtype=np.float64)
    if Z_landmarks.ndim != 2 or Z_landmarks.shape[0] != X_landmarks.shape[0]:
        raise ValidationError(
            f"Z_landmarks must be (n_landmarks, d) = ({X_landmarks.shape[0]}, d); "
            f"got shape {Z_landmarks.shape}"
        )
    k = min(int(n_neighbors), X_landmarks.shape[0])
    bandwidth = resolve_bandwidth(X_landmarks, bandwidth, exclude=exclude)
    weights = knn_cross(
        X_new,
        X_landmarks,
        n_neighbors=k,
        bandwidth=bandwidth,
        exclude=exclude,
    )
    mass = np.asarray(weights.sum(axis=1)).ravel()
    degenerate = mass <= 0.0
    if degenerate.any():
        # All k weights underflowed: use the single nearest landmark.
        nearest = knn_cross(
            X_new[degenerate],
            X_landmarks,
            n_neighbors=1,
            bandwidth=bandwidth,
            exclude=exclude,
            binary=True,
        )
        out = np.zeros((X_new.shape[0], Z_landmarks.shape[1]))
        out[~degenerate] = (
            (weights[~degenerate] @ Z_landmarks) / mass[~degenerate][:, None]
        )
        out[degenerate] = nearest @ Z_landmarks
        return out
    return (weights @ Z_landmarks) / mass[:, None]


def embedding_fidelity(Z_ref, Z, *, per_row: bool = False, align: bool = True):
    """Row-wise cosine similarity, optionally after the best linear alignment.

    Embeddings are equivalent up to an invertible linear map (downstream
    linear models cannot tell them apart), so the default least-squares-
    aligns ``Z`` onto ``Z_ref`` before comparing rows — a Procrustes-style
    measure generalized to absorb the per-column scale differences between
    an m-row and an n-row orthonormality constraint. Returns 1.0 for
    equivalent embeddings; this is the acceptance metric of
    ``benchmarks/bench_landmark.py`` and the monotonicity lockdown in
    ``tests/test_core_approx.py``.

    Parameters
    ----------
    per_row:
        Return the ``(n,)`` vector of row similarities instead of their
        mean — the drift-scoring primitive of the lifecycle layer.
    align:
        Fit the free linear alignment before comparing. Disable when both
        embeddings already live in the same basis (e.g. the parametric map
        vs. the graph-smoothing extension of one fitted model): on small
        batches with at most ``d`` rows the free alignment is trivially
        exact, which would score every batch 1.0 and hide all drift.
    """
    Z_ref = np.asarray(Z_ref, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if Z_ref.shape != Z.shape or Z_ref.ndim != 2:
        raise ValidationError(
            f"embedding_fidelity needs two equal-shape 2-D embeddings; "
            f"got {Z_ref.shape} and {Z.shape}"
        )
    if align:
        A, *_ = np.linalg.lstsq(Z, Z_ref, rcond=None)
        Z_aligned = Z @ A
    else:
        Z_aligned = Z
    numerator = np.sum(Z_aligned * Z_ref, axis=1)
    denominator = np.maximum(
        np.linalg.norm(Z_aligned, axis=1) * np.linalg.norm(Z_ref, axis=1),
        1e-15,
    )
    scores = numerator / denominator
    if per_row:
        return scores
    return float(np.mean(scores))


def row_agreement(Z_graph, Z_param) -> np.ndarray:
    """Scale-aware per-row agreement between two same-basis embeddings.

    The cosine (no free alignment — see :func:`embedding_fidelity`'s
    ``align``) scaled by the norm ratio of the rows: the graph-smoothing
    extension is a convex combination of landmark embeddings, so a
    drifted row whose parametric image leaves the landmark hull keeps a
    plausible *direction* but an inflated *norm* — the ratio is what
    collapses. The drift score of :func:`repro.lifecycle.scorer_for`,
    through which :meth:`LandmarkPlan.score_rows` scores too.
    """
    Z_graph = np.asarray(Z_graph, dtype=np.float64)
    Z_param = np.asarray(Z_param, dtype=np.float64)
    cosine = embedding_fidelity(Z_graph, Z_param, per_row=True, align=False)
    norm_graph = np.linalg.norm(Z_graph, axis=1)
    norm_param = np.linalg.norm(Z_param, axis=1)
    ratio = np.minimum(norm_graph, norm_param) / np.maximum(
        np.maximum(norm_graph, norm_param), 1e-15
    )
    return cosine * ratio


def _drift_scorer(model, bandwidth=None):
    """The one per-row drift scorer, built from a fitted landmark model.

    Returns ``score(X_rows, Z_rows=None)``: the :func:`row_agreement`
    between the model's out-of-sample map (``transform``, or ``Z_rows``
    when the caller already has it) and the graph-smoothing
    :func:`nystrom_extend` of the model's own landmark embedding over its
    stored landmark rows. ``bandwidth=None`` takes the landmarks' median
    once, here; :meth:`LandmarkPlan.score_rows` passes the plan's cached
    one instead. ``None`` when the model keeps no landmark rows.
    """
    X_landmarks = getattr(model, "landmark_X_", None)
    if X_landmarks is None and getattr(model, "landmark_indices_", None) is not None:
        # Kernel Nyström fits keep their landmark rows as the kernel basis.
        X_landmarks = getattr(model, "X_fit_", None)
    if X_landmarks is None:
        return None
    X_landmarks = np.asarray(X_landmarks, dtype=np.float64)
    if X_landmarks.ndim != 2 or X_landmarks.shape[0] < 2:
        return None
    Z_landmarks = np.asarray(model.transform(X_landmarks), dtype=np.float64)
    exclude = getattr(model, "exclude_columns", None)
    if bandwidth is None:
        bandwidth = resolve_bandwidth(
            X_landmarks, getattr(model, "bandwidth", None), exclude=exclude
        )
    n_neighbors = min(int(getattr(model, "n_neighbors", 10)), X_landmarks.shape[0])

    def score(X_rows, Z_rows=None) -> np.ndarray:
        X_rows = np.asarray(X_rows, dtype=np.float64)
        if X_rows.ndim == 1:
            X_rows = X_rows[None, :]
        if Z_rows is None:
            Z_param = np.asarray(model.transform(X_rows), dtype=np.float64)
        else:
            Z_param = np.asarray(Z_rows, dtype=np.float64)
            if Z_param.ndim == 1:
                Z_param = Z_param[None, :]
        Z_graph = nystrom_extend(
            X_rows,
            X_landmarks,
            Z_landmarks,
            n_neighbors=n_neighbors,
            bandwidth=bandwidth,
            exclude=exclude,
        )
        return row_agreement(Z_graph, Z_param)

    return score


def _restrict(W, indices: np.ndarray):
    """Symmetric restriction ``W[indices][:, indices]`` (sparse or dense)."""
    if sp.issparse(W):
        return W.tocsr()[indices][:, indices]
    return np.asarray(W)[np.ix_(indices, indices)]


class LandmarkPlan:
    """Landmark-Nyström fit pipeline for PFR-family estimators.

    Selects ``n_landmarks`` training rows (:func:`select_landmarks`),
    restricts the fairness graph (and any precomputed data graph) to them,
    and drives a :class:`~repro.core.SpectralFitPlan` over the landmark
    subproblem — so the eigenproblem costs O(m³) instead of O(n³) while
    γ/d sweeps keep the PR-2 warm-start behavior. :meth:`fit` populates a
    ``PFR(extension="nystrom")`` / ``KernelPFR(extension="nystrom")``
    estimator whose ``transform`` then serves arbitrary unseen rows.

    With ``n_landmarks = n`` every strategy selects all rows and the sorted
    index set makes the landmark matrices byte-identical to the full ones:
    the plan then reproduces the exact :class:`SpectralFitPlan` solve to
    machine precision (locked down by ``tests/test_core_approx.py``).

    Parameters are :class:`SpectralFitPlan`'s plus the landmark knobs
    ``n_landmarks``, ``strategy`` and ``seed``. Build instances through
    :func:`plan_for_estimator` (or :meth:`for_estimator`), the one map from
    an estimator to its plan: the table ``_LANDMARK`` in
    :mod:`repro.core.plan` maps the estimator's ``landmarks``,
    ``landmark_strategy`` and ``landmark_seed`` onto these knobs, and
    ``_STRUCTURAL`` supplies the rest. The knobs are validated once, by
    :func:`check_extension_params`; the structural values by the
    landmark subproblem's :class:`SpectralFitPlan`.
    """

    def __init__(
        self,
        X,
        w_fair,
        *,
        n_landmarks: int,
        strategy: str = "kmeans++",
        seed=0,
        kind: str = "linear",
        w_x=None,
        exclude_columns=None,
        **structural,
    ):
        X, w_fair, w_x = _check_inputs(X, w_fair, w_x)
        n = X.shape[0]
        self.X = X
        self.n_landmarks = int(n_landmarks)
        self.strategy = strategy
        self.seed = seed
        with span("plan.landmarks", strategy=str(strategy),
                  m=int(n_landmarks), n=int(n)):
            self.indices_ = select_landmarks(
                X,
                self.n_landmarks,
                strategy=strategy,
                seed=seed,
                exclude=exclude_columns,
            )
        self.X_landmarks_ = X[self.indices_]
        w_fair_landmarks = _restrict(w_fair, self.indices_)
        w_x_landmarks = None if w_x is None else _restrict(w_x, self.indices_)
        self.subplan = SpectralFitPlan(
            self.X_landmarks_,
            w_fair_landmarks,
            kind=kind,
            w_x=w_x_landmarks,
            exclude_columns=exclude_columns,
            **structural,
        )
        self._landmark_digest = _stage_digest(
            "landmarks",
            {
                "n_landmarks": self.n_landmarks,
                "strategy": self.strategy,
                "seed": repr(self.seed),
                "n_total": n,
            },
            {"X": X, "indices": self.indices_},
        )
        self._init_lifecycle_state()

    def _init_lifecycle_state(self) -> None:
        # Refresh lineage + streaming state (see extend()/refresh()). A
        # freshly constructed plan is a root: no parent, nothing pending.
        self.parent: LandmarkPlan | None = None
        self._extend_digest: str | None = None
        self._pending: list[tuple[np.ndarray, object]] = []
        self._last_fit_point: tuple[float, int] | None = None
        self._baselines: dict[tuple[float, int], dict] = {}
        # Heat-kernel bandwidth of the landmark set (_landmark_bandwidth).
        self._bandwidth: float | None = None
        # The estimator of the last fit() and its drift scorer (score_rows).
        self._fitted = None
        self._scorer = None

    @property
    def n_pending(self) -> int:
        """Rows buffered by :meth:`extend` awaiting the next :meth:`refresh`."""
        return sum(batch.shape[0] for batch, _ in self._pending)

    # ------------------------------------------------------------ factory
    @classmethod
    def for_estimator(cls, estimator, X, w_fair, *, w_x=None) -> "LandmarkPlan":
        """Build the landmark plan matching a PFR/KernelPFR's configuration.

        The estimator must have ``extension="nystrom"`` and an integer
        ``landmarks``; its γ and ``n_components`` stay free sweep axes,
        exactly as with :meth:`SpectralFitPlan.for_estimator`.
        """
        structural = _plan_kwargs(estimator)
        check_extension_params(estimator)
        if estimator.extension != "nystrom":
            raise ValidationError(
                "LandmarkPlan.for_estimator needs an estimator with "
                f"extension='nystrom'; got {estimator.extension!r}"
            )
        knobs = {arg: getattr(estimator, name) for name, arg in _LANDMARK.items()}
        # n is the capacity ceiling: asking for more landmarks than rows
        # degrades gracefully to the exact solve.
        n = check_array(X, name="X", min_samples=2).shape[0]
        knobs["n_landmarks"] = min(int(knobs["n_landmarks"]), n)
        return cls(X, w_fair, w_x=w_x, **knobs, **structural)

    # ---------------------------------------------------------- delegation
    @property
    def graph(self) -> Precomputed:
        """Stage bundle of the landmark subproblem's graphs."""
        return self.subplan.graph

    @property
    def laplacians(self) -> Precomputed:
        """Stage bundle of the landmark subproblem's Laplacians."""
        return self.subplan.laplacians

    @property
    def projection(self) -> Precomputed:
        """Stage bundle of the landmark subproblem's objective matrices."""
        return self.subplan.projection

    @property
    def d_max(self) -> int:
        """Largest latent dimensionality the landmark subproblem supports."""
        return self.subplan.d_max

    def solve(self, gamma: float, d: int):
        """Eigenpairs of the γ-mixed *landmark* objective (see
        :meth:`SpectralFitPlan.solve` — caching and eigengap guards apply
        unchanged)."""
        return self.subplan.solve(gamma, d)

    def fit(self, estimator):
        """Populate a nystrom-extension estimator from the landmark solve.

        Beyond :meth:`SpectralFitPlan.fit`, records the selected
        ``landmark_indices_`` (positions into the *full* training matrix)
        and prepends the ``landmarks`` stage digest to ``plan_digests_``.
        Returns the estimator.
        """
        if getattr(estimator, "extension", "exact") != "nystrom":
            raise ValidationError(
                "LandmarkPlan fits estimators with extension='nystrom'; "
                f"got extension={getattr(estimator, 'extension', 'exact')!r}"
            )
        expected = {name: getattr(self, arg) for name, arg in _LANDMARK.items()}
        wanted = {name: getattr(estimator, name) for name in _LANDMARK}
        # Clamped to n, as for_estimator clamps it.
        wanted["landmarks"] = min(int(wanted["landmarks"]), self.X.shape[0])
        # The drift scorer reads the k-NN settings off the estimator, so
        # they must match even where a precomputed w_x left them out of
        # the solve (and out of _populate's match).
        for name in _KNN:
            expected[name] = getattr(self.subplan, name)
            wanted[name] = getattr(estimator, name)
        _check_match(expected, wanted)
        self.subplan._populate(estimator)
        estimator.landmark_indices_ = self.indices_.copy()
        estimator.landmark_X_ = self.X_landmarks_.copy()
        estimator.plan_digests_ = self.stage_digests()
        self._last_fit_point = (
            float(estimator.gamma),
            int(estimator.n_components),
        )
        # score_rows scores through a copy, so refitting ``estimator`` on
        # another plan leaves this plan's scores alone.
        self._fitted = copy.copy(estimator)
        self._scorer = None
        return estimator

    # ----------------------------------------------------------- lifecycle
    def _landmark_bandwidth(self) -> float:
        """The extension's heat-kernel bandwidth, resolved at most once.

        The landmark set never changes for a plan, so the O(m²) median
        :func:`nystrom_extend` would take on every call is taken once. A
        subplan that built its own landmark graph already took exactly
        that median; a refresh child receives it from :meth:`refresh`.
        """
        if self._bandwidth is None:
            built = self.subplan._graph
            if built is not None and built["bandwidth"] is not None:
                self._bandwidth = built["bandwidth"]
            else:
                self._bandwidth = resolve_bandwidth(
                    self.X_landmarks_,
                    self.subplan.bandwidth,
                    exclude=self.subplan.exclude_columns,
                )
        return self._bandwidth

    def score_rows(self, X_rows) -> np.ndarray:
        """Per-row fidelity of new rows against this plan's landmark set.

        The lifecycle layer's drift signal: :func:`repro.lifecycle.scorer_for`
        of the estimator the last :meth:`fit` populated (the scale-aware
        :func:`row_agreement` between its parametric embedding and the
        graph-smoothing :func:`nystrom_extend`), with the plan's cached
        landmark bandwidth. A plan scores only once fitted; a refreshed
        child too, which :class:`repro.lifecycle.LifecycleController`, the
        one caller of :meth:`refresh`, fits before it scores.
        """
        if self._fitted is None:
            raise ValidationError(
                "scoring rows needs a fitted operating point: fit() an "
                "estimator on this plan first"
            )
        X_rows = check_array(X_rows, name="X_rows")
        if X_rows.shape[1] != self.X.shape[1]:
            raise ValidationError(
                f"X_rows has {X_rows.shape[1]} features but the plan was "
                f"built on {self.X.shape[1]}"
            )
        if self._scorer is None:
            self._scorer = _drift_scorer(self._fitted, self._landmark_bandwidth())
        return self._scorer(X_rows)

    def fidelity_baseline(self) -> dict:
        """Fit-time per-row fidelity distribution (cached per (γ, d)).

        Scores a seeded sample of ``_BASELINE_SAMPLE`` training rows
        through :meth:`score_rows` and summarizes the distribution's
        quantiles — the yardstick :class:`repro.lifecycle.DriftMonitor`
        judges the scores of incoming batches against.
        """
        cached = self._baselines.get(self._last_fit_point)
        if cached is None:
            n = self.X.shape[0]
            rng = check_random_state(0)
            take = min(_BASELINE_SAMPLE, n)
            index = np.sort(rng.choice(n, size=take, replace=False))
            scores = self.score_rows(self.X[index])
            gamma, d = self._last_fit_point
            quantiles = np.quantile(scores, [0.01, 0.05, 0.10, 0.25, 0.50])
            cached = {
                "gamma": gamma,
                "d": d,
                "n_sample": take,
                "mean": float(scores.mean()),
                "p01": float(quantiles[0]),
                "p05": float(quantiles[1]),
                "p10": float(quantiles[2]),
                "p25": float(quantiles[3]),
                "p50": float(quantiles[4]),
            }
            self._baselines[(gamma, d)] = cached
        return dict(cached)

    def extend(self, X_new, *, w_fair_new=None) -> np.ndarray:
        """Score arriving rows and buffer them for the next :meth:`refresh`.

        Requires a prior :meth:`fit`: the batch is scored with
        :meth:`score_rows` at the last fit's operating point and appended
        to the pending rows. Returns the per-row scores; whether they
        warrant a refresh is the caller's decision (see
        :class:`repro.lifecycle.RefreshPolicy`).

        ``w_fair_new`` optionally carries judged fairness edges *within*
        the batch (shape ``(q, q)``); unjudged batches join the fairness
        graph isolated, exactly like unjudged individuals in the paper.
        """
        X_new = check_array(X_new, name="X_new")
        if X_new.shape[1] != self.X.shape[1]:
            raise ValidationError(
                f"X_new has {X_new.shape[1]} features but the plan was "
                f"built on {self.X.shape[1]}"
            )
        if w_fair_new is not None:
            w_fair_new = check_symmetric(w_fair_new, name="w_fair_new")
            if w_fair_new.shape[0] != X_new.shape[0]:
                raise ValidationError(
                    f"w_fair_new has {w_fair_new.shape[0]} nodes but X_new "
                    f"has {X_new.shape[0]} rows"
                )
        with span("plan.extend", n_new=int(X_new.shape[0])):
            scores = self.score_rows(X_new)
            self._pending.append((X_new, w_fair_new))
        return scores

    def refresh(self) -> "LandmarkPlan":
        """Warm-started refit folding the pending rows into the landmark set.

        Selects new landmarks *from the pending rows only* (worst case
        O(q·m·f) instead of the cold fit's O(n·m·f) over the full training
        matrix; :func:`select_landmarks` recomputes only the rows its
        triangle-inequality bound cannot rule out, so clustered rows cost
        far less), keeps the parent's landmark data graph block
        verbatim, and computes only the new-landmark edges via
        :func:`repro.graphs.knn_cross` — the assembled graph is handed to
        the child's :class:`SpectralFitPlan` as a precomputed ``w_x``, so
        the child never rebuilds what the parent already paid for. The
        pending rows get landmarks in the parent's proportion ``m / n``
        (at least one). Pending fairness edges ride along; old↔new
        fairness edges are unknown at refresh time and enter as zeros
        (unjudged pairs, paper §3.2).

        Returns the child plan; its :meth:`stage_digests` chain off this
        plan's digests (``landmarks`` + a new ``extend`` stage) so the
        refresh lineage is explicit in every downstream manifest. Like a
        root plan, the child scores only once an estimator is fitted on
        it: :class:`repro.lifecycle.LifecycleController`, the one caller,
        fits it at this plan's operating point first.
        """
        if not self._pending:
            raise ValidationError(
                "refresh() has no pending rows; call extend(X_new) first"
            )
        X_pending = np.vstack([batch for batch, _ in self._pending])
        q = X_pending.shape[0]
        m = len(self.indices_)
        n = self.X.shape[0]
        n_new_landmarks = max(1, min(q, int(round(m * q / max(n, 1)))))
        with span("plan.refresh", n_pending=int(q),
                  n_new_landmarks=int(n_new_landmarks)):
            child = self._refresh_child(X_pending, n_new_landmarks)
        self._pending = []
        return child

    def _refresh_child(
        self, X_pending: np.ndarray, n_new_landmarks: int
    ) -> "LandmarkPlan":
        sub = self.subplan
        q = X_pending.shape[0]
        m = len(self.indices_)
        n = self.X.shape[0]
        exclude = sub.exclude_columns
        with span("plan.landmarks", strategy=str(self.strategy),
                  m=int(n_new_landmarks), n=int(q)):
            if n_new_landmarks >= 2:
                new_local = select_landmarks(
                    X_pending,
                    n_new_landmarks,
                    strategy=self.strategy,
                    seed=self.seed,
                    exclude=exclude,
                )
            else:
                # A single new landmark: the pending row farthest from the
                # existing landmark set (greedy farthest-point step).
                view = _distance_view(X_pending, exclude)
                landmark_view = _distance_view(self.X_landmarks_, exclude)
                d2 = np.full(q, np.inf)
                for row in landmark_view:
                    np.minimum(d2, _min_sq_distances(view, row), out=d2)
                new_local = np.array([int(np.argmax(d2))], dtype=np.int64)
        X_new_landmarks = X_pending[new_local]
        q_new = X_new_landmarks.shape[0]
        landmarks = np.vstack([self.X_landmarks_, X_new_landmarks])

        # --- incremental data graph: reuse the old m×m block verbatim ----
        W_old = sub.graph["w_x"]
        k = min(sub.n_neighbors, m)
        bandwidth = extension_bandwidth = sub.bandwidth
        if bandwidth is None:
            graph_view = _distance_view(landmarks, exclude)
            bandwidth = extension_bandwidth = float(median_heuristic(graph_view))
            if not graph_view.flags.c_contiguous:
                # The extension's median runs over a C-contiguous view
                # (resolve_bandwidth); a column subset of the landmarks is
                # not one and can round differently, so it gets its own.
                extension_bandwidth = resolve_bandwidth(landmarks, exclude=exclude)
        cross = knn_cross(
            X_new_landmarks,
            self.X_landmarks_,
            n_neighbors=k,
            bandwidth=bandwidth,
            exclude=exclude,
        )
        if q_new >= 2:
            W_new = knn_graph(
                X_new_landmarks,
                n_neighbors=min(k, q_new - 1),
                bandwidth=bandwidth,
                exclude=exclude,
            )
        else:
            W_new = sp.csr_matrix((1, 1))
        W_combined = sp.bmat(
            [
                [sp.csr_matrix(W_old), sp.csr_matrix(cross).T],
                [sp.csr_matrix(cross), sp.csr_matrix(W_new)],
            ],
            format="csr",
        )
        if not sp.issparse(W_old):
            W_combined = W_combined.toarray()

        # --- fairness graph: parent landmark block ⊕ judged pending edges
        WF_new = np.zeros((q_new, q_new), dtype=np.float64)
        offset = 0
        for batch, w_fair_batch in self._pending:
            size = batch.shape[0]
            if w_fair_batch is not None:
                hit = np.where(
                    (new_local >= offset) & (new_local < offset + size)
                )[0]
                if hit.size:
                    local = new_local[hit] - offset
                    block = (
                        w_fair_batch.toarray()
                        if sp.issparse(w_fair_batch)
                        else np.asarray(w_fair_batch)
                    )
                    WF_new[np.ix_(hit, hit)] = block[np.ix_(local, local)]
            offset += size
        WF_old = sub.w_fair
        if sp.issparse(WF_old):
            WF_combined = sp.bmat(
                [[WF_old, None], [None, sp.csr_matrix(WF_new)]], format="csr"
            )
        else:
            WF_combined = np.zeros((m + q_new, m + q_new), dtype=np.float64)
            WF_combined[:m, :m] = np.asarray(WF_old)
            WF_combined[m:, m:] = WF_new

        extend_digest = _stage_digest(
            "extend",
            {
                "parent_landmarks": self._landmark_digest,
                "n_pending": int(q),
                "n_new_landmarks": int(q_new),
            },
            {"X_new_landmarks": X_new_landmarks, "new_local": new_local},
        )

        child = object.__new__(LandmarkPlan)
        child.X = np.vstack([self.X, X_pending])
        child.n_landmarks = m + q_new
        child.strategy = self.strategy
        child.seed = self.seed
        child.indices_ = np.concatenate([self.indices_, n + new_local])
        child.X_landmarks_ = landmarks
        child.subplan = SpectralFitPlan(
            child.X_landmarks_,
            WF_combined,
            kind=sub.kind,
            w_x=W_combined,
            **sub._structural_params(),
        )
        child._landmark_digest = _stage_digest(
            "landmarks",
            {
                "n_landmarks": child.n_landmarks,
                "strategy": child.strategy,
                "seed": repr(child.seed),
                "n_total": child.X.shape[0],
                "parent": self._landmark_digest,
                "extend": extend_digest,
            },
            {"indices": child.indices_},
        )
        child._init_lifecycle_state()
        child._bandwidth = extension_bandwidth
        child.parent = self
        child._extend_digest = extend_digest
        return child

    # ------------------------------------------------------------ digests
    def stage_digests(self) -> dict:
        """Provenance chain: ``landmarks`` + the landmark subproblem stages.

        The ``landmarks`` digest fingerprints the full training matrix,
        the selection knobs and the chosen indices; the downstream stage
        digests (graph → laplacian → projection → solve) come from the
        subplan, whose graph stage already hashes the landmark rows — so
        two plans share a chain iff they agree on the data, the selection
        and every structural hyper-parameter. Refreshed plans additionally
        carry an ``extend`` digest chaining the child to its parent's
        landmark digest, so refresh lineage is auditable from any fitted
        artifact; root plans emit exactly the pre-lifecycle keys
        (byte-identical digests when the feature is unused).
        """
        digests = {"landmarks": self._landmark_digest}
        if self._extend_digest is not None:
            digests["extend"] = self._extend_digest
        digests.update(self.subplan.stage_digests())
        return digests


def plan_for_estimator(estimator, X, w_fair, *, w_x=None):
    """The fit plan an estimator's configuration calls for.

    The one map from an estimator to its plan: ``extension="nystrom"``
    estimators get a :class:`LandmarkPlan`, everything else the exact
    :class:`~repro.core.SpectralFitPlan`, each built from the structural
    table in :mod:`repro.core.plan`. ``PFR.fit``/``KernelPFR.fit``,
    :func:`repro.core.fit_path` and the experiment harness's plan caches
    all build their plans here.
    """
    if getattr(estimator, "extension", "exact") == "nystrom":
        return LandmarkPlan.for_estimator(estimator, X, w_fair, w_x=w_x)
    check_extension_params(estimator)
    return SpectralFitPlan.for_estimator(estimator, X, w_fair, w_x=w_x)
