"""Staged spectral fit pipeline: precompute once, sweep γ and d for free.

The paper's headline experiments are γ-sweeps (Figures 4, 7, 10) and
accuracy/fairness trade-off grids, yet a naive sweep refits from scratch at
every operating point even though only the scalar mix weight γ changes.
This module decomposes :meth:`repro.core.PFR.fit` (and the kernel variant)
into four explicit stages whose outputs are immutable :class:`Precomputed`
bundles, so everything upstream of the γ-mix is shared across a sweep:

1. **Graph stage** — build or validate the data graph ``WX`` (paper §3.1,
   the k-NN heat-kernel graph of Equation 1 computed excluding the
   protected attributes) and the fairness graph ``WF`` (§3.2).
2. **Laplacian stage** — the combinatorial (or normalized) Laplacians
   ``L_X = D_X - WX`` and ``L_F = D_F - WF`` entering Equations 5–6.
3. **Projection stage** — the γ-independent quadratic forms of the trace
   objective. Linear PFR (Equation 7): ``M_X = Xᵀ L_X X``,
   ``M_F = Xᵀ L_F X`` and the constraint matrix ``B = Xᵀ X`` of the
   ``ZZᵀ = I`` generalized problem. Kernel PFR (Equation 8): the analogues
   ``K L K`` (constraint ``'v'``) or ``Φᵀ L Φ`` in the kernel's principal
   subspace (constraint ``'z'``), including the one-off ``O(n³)``
   eigendecomposition of ``K`` itself. Per-term rescaling (trace or
   degree) is folded in here, so stage 4 sees ready-to-mix matrices.
4. **Solve stage** — mix ``M(γ) = (1-γ) M_X + γ M_F`` (Equations 5–6
   reduce to this because the objective is linear in the Laplacian) and
   take the ``d`` smallest eigenpairs (Equations 7–8). Solutions are
   cached per γ at the largest ``d`` requested, so a sweep over ``d``
   solves once at ``d_max`` and slices eigenpairs (guarded by an eigengap
   check so a slice never splits a degenerate cluster — sliced results
   stay numerically equal to independent fits).

For a sweep, stages 1–3 run once; each γ costs only one dense mix plus one
small eigensolve (``tests/test_core_plan.py::TestFitPathStaging`` counts
the stage builds; perfbench's ``sweep`` workload times the result).

Every stage also carries a SHA-256 digest chained from its inputs, giving
each fitted estimator an auditable provenance trail (``plan_digests_``)
that the serving registry records in its manifests.

:func:`repro.core.plan_for_estimator` is the one map from an estimator to
its plan. It reads the estimator's structural hyper-parameters — the
names in ``_STRUCTURAL`` for its kind, plus ``_LANDMARK`` for nystrom
fits — and a plan's ``fit`` checks an estimator against the same table.
Each value is validated once: ``extension`` and the landmark knobs by
:func:`repro.core.approx.check_extension_params`; ``X``, ``w_fair`` and
``w_x`` by ``_check_inputs``; the other structural values by the
:class:`SpectralFitPlan` constructor; ``n_components`` by :meth:`fit`;
γ by :meth:`SpectralFitPlan.solve`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .._validation import check_array, check_finite, check_symmetric
from ..exceptions import ValidationError
from ..graphs.knn import knn_graph, median_heuristic, resolve_bandwidth
from ..graphs.laplacian import laplacian
from ..obs.metrics import get_registry
from ..obs.trace import span
from .trace_optimization import (
    objective_matrix,
    sign_normalize,
    smallest_eigenvectors,
)

__all__ = ["Precomputed", "SpectralFitPlan", "fit_path"]

# Numeric options PFR and KernelPFR took up to 1.1.0, each with the values
# that selected the one path left: the exact k-NN graph, the dense LAPACK
# solve and float64. None accepts any value: knn_seed seeded only the
# removed approximate k-NN backend.
RETIRED_PARAMS = {
    "eig_solver": ("auto", "dense"),
    "knn_backend": ("exact",),
    "knn_seed": None,
    "dtype": ("float64",),
}


def retired_param_message(name: str) -> str:
    """Why ``name``, a :data:`RETIRED_PARAMS` key, is no longer taken."""
    return (
        f"{name!r} is a retired numeric option: PFR and KernelPFR always "
        "build the exact k-NN graph and solve dense in float64"
    )


# The k-NN data graph's settings (§3.1); a precomputed w_x leaves them unused.
_KNN = ("n_neighbors", "bandwidth", "exclude_columns")

# The structural hyper-parameters of each plan kind: the estimator
# attributes, named as the SpectralFitPlan arguments, that fix the plan.
# γ and n_components are not here: they are the sweep axes.
_STRUCTURAL = {
    "linear": (*_KNN, "normalized_laplacian", "rescale", "constraint", "ridge"),
    "kernel": (*_KNN, "rescale", "constraint", "ridge",
               "kernel", "kernel_bandwidth", "degree", "coef0"),
}

_KERNELS = ("linear", "rbf", "poly")

# A nystrom estimator's landmark knobs -> the LandmarkPlan arguments.
_LANDMARK = {
    "landmarks": "n_landmarks",
    "landmark_strategy": "strategy",
    "landmark_seed": "seed",
}


def _estimator_kind(estimator) -> str | None:
    """The plan kind that fits ``estimator``; ``None`` for other objects."""
    from .kernel_pfr import KernelPFR
    from .pfr import PFR

    if isinstance(estimator, KernelPFR):
        return "kernel"
    return "linear" if isinstance(estimator, PFR) else None


def _plan_kwargs(estimator) -> dict:
    """``kind`` and the structural values: a plan's arguments for ``estimator``."""
    kind = _estimator_kind(estimator)
    if kind is None:
        raise ValidationError(
            f"for_estimator expects a PFR or KernelPFR; got {type(estimator).__name__}"
        )
    structural = {name: getattr(estimator, name) for name in _STRUCTURAL[kind]}
    return {"kind": kind, **structural}


def _columns(columns):
    """``exclude_columns`` as it enters comparisons and digests."""
    return None if columns is None else tuple(int(c) for c in columns)


def _check_match(expected: dict, values: dict) -> None:
    """Raise unless an estimator's ``values`` equal the plan's ``expected``."""
    for name, mine in expected.items():
        value = values[name]
        if name == "exclude_columns":
            value, mine = _columns(value), _columns(mine)
        if value != mine:
            raise ValidationError(
                f"estimator is structurally incompatible with this plan: "
                f"{name}={value!r} differs from the plan's {mine!r}"
            )


def _check_integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int; a ValidationError naming ``name`` unless it is an
    integer (numpy integer scalars included) in ``[low, high]``."""
    try:
        integral = value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be an integer {bounds}; got {value!r}")
    return int(value)


def _check_inputs(X, w_fair, w_x=None):
    """Validated ``(X, w_fair, w_x)``: every plan's training inputs."""
    X = check_array(X, name="X", min_samples=2)
    n = X.shape[0]

    def graph(W, name):
        # Sparse graphs keep their dtype: it enters the graph digest.
        W = check_symmetric(W, name=name)
        if W.shape[0] != n:
            raise ValidationError(
                f"{name} has {W.shape[0]} nodes but X has {n} samples"
            )
        return W

    return X, graph(w_fair, "w_fair"), None if w_x is None else graph(w_x, "w_x")


def _hash_array(digest, array) -> None:
    """Feed one (dense or sparse) array into a hashlib digest."""
    if sp.issparse(array):
        csr = array.tocsr()
        if not csr.has_sorted_indices:
            csr = csr.sorted_indices()
        digest.update(b"sparse")
        digest.update(repr(csr.shape).encode())
        for part in (csr.data, csr.indices, csr.indptr):
            part = np.ascontiguousarray(part)
            digest.update(part.dtype.str.encode())
            digest.update(part.tobytes())
        return
    dense = np.ascontiguousarray(np.asarray(array))
    digest.update(b"dense")
    digest.update(dense.dtype.str.encode())
    digest.update(repr(dense.shape).encode())
    digest.update(dense.tobytes())


def _stage_digest(stage: str, params: dict, arrays: dict | None = None) -> str:
    """Deterministic SHA-256 fingerprint of one stage's inputs."""
    digest = hashlib.sha256()
    digest.update(stage.encode())
    digest.update(repr(sorted(params.items())).encode())
    for name in sorted(arrays or {}):
        digest.update(name.encode())
        _hash_array(digest, arrays[name])
    return digest.hexdigest()


@dataclass(frozen=True)
class Precomputed:
    """Immutable output bundle of one pipeline stage.

    Attributes
    ----------
    stage:
        Stage name: ``"graph"``, ``"laplacian"`` or ``"projection"``.
    digest:
        SHA-256 fingerprint of the stage's inputs, chained through the
        upstream stage's digest — two plans agree on a digest iff they
        agree on everything that influences the stage's output.
    data:
        Read-only mapping of the stage's named outputs.
    """

    stage: str
    digest: str
    data: Mapping[str, Any] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", MappingProxyType(dict(self.data)))

    def __getitem__(self, key: str):
        return self.data[key]


class SpectralFitPlan:
    """Reusable precomputation pipeline behind ``PFR.fit`` / ``KernelPFR.fit``.

    A plan is bound to one training set ``(X, WF[, WX])`` and one set of
    *structural* hyper-parameters (graph construction, Laplacian flavor,
    rescale mode, constraint, kernel configuration). The *sweep*
    hyper-parameters — γ and the latent dimensionality ``d`` — are free:
    :meth:`solve` answers any (γ, d) point by reusing all upstream stages,
    and :meth:`fit` populates a compatible estimator in place.

    Stages materialize lazily on first access and are exposed as
    :class:`Precomputed` bundles via :attr:`graph`, :attr:`laplacians` and
    :attr:`projection`.

    Use :meth:`for_estimator` (or the :class:`repro.core.PFR` /
    :class:`repro.core.KernelPFR` constructors' parameters mirrored here
    directly) to build one; use :func:`fit_path` for the common
    γ-by-dimension sweep.
    """

    def __init__(
        self,
        X,
        w_fair,
        *,
        kind: str = "linear",
        w_x=None,
        n_neighbors: int = 10,
        bandwidth: float | None = None,
        exclude_columns=None,
        normalized_laplacian: bool = False,
        rescale: str = "objective",
        constraint: str = "z",
        ridge: float = 1e-8,
        kernel: str = "rbf",
        kernel_bandwidth: float | None = None,
        degree: int = 3,
        coef0: float = 1.0,
    ):
        if kind not in _STRUCTURAL:
            raise ValidationError(f"kind must be 'linear' or 'kernel'; got {kind!r}")
        _check_integer("n_neighbors", n_neighbors, 1)
        if not isinstance(normalized_laplacian, (bool, np.bool_)):
            raise ValidationError(
                f"normalized_laplacian must be a bool; got {normalized_laplacian!r}"
            )
        if rescale not in ("objective", "degree", "none"):
            raise ValidationError(
                f"rescale must be 'objective', 'degree' or 'none'; got {rescale!r}"
            )
        if constraint not in ("z", "v"):
            raise ValidationError(
                f"constraint must be 'z' (ZZᵀ=I, Eq. 5) or 'v' (VᵀV=I, Eq. 6); "
                f"got {constraint!r}"
            )
        if not ridge >= 0:
            raise ValidationError(f"ridge must be non-negative; got {ridge}")
        for name, value in (("bandwidth", bandwidth),
                            ("kernel_bandwidth", kernel_bandwidth)):
            if value is not None:
                check_finite(value, name=name, positive=True)
        if kernel not in _KERNELS:
            raise ValidationError(f"kernel must be one of {_KERNELS}; got {kernel!r}")
        _check_integer("degree", degree, 1)
        check_finite(coef0, name="coef0")
        X, w_fair, w_x = _check_inputs(X, w_fair, w_x)

        self.X = X
        self.w_fair = w_fair
        self.kind = kind
        self.n_neighbors = n_neighbors
        self.bandwidth = bandwidth
        self.exclude_columns = exclude_columns
        self.normalized_laplacian = bool(normalized_laplacian) if kind == "linear" else False
        self.rescale = rescale
        self.constraint = constraint
        self.ridge = ridge
        self.kernel = kernel
        self.kernel_bandwidth = kernel_bandwidth
        self.degree = degree
        self.coef0 = coef0

        self._w_x_input = w_x
        self._graph: Precomputed | None = None
        self._laplacians: Precomputed | None = None
        self._projection: Precomputed | None = None
        # γ -> (eigenvalues, eigenvectors) at the largest d solved so far.
        self._solves: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        # (γ, d) -> dedicated solves where slicing would cut a degenerate
        # eigenvalue cluster (see _slice_is_safe).
        self._exact_solves: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------ factory
    @classmethod
    def for_estimator(cls, estimator, X, w_fair, *, w_x=None) -> "SpectralFitPlan":
        """Build the plan matching an (unfitted) PFR or KernelPFR's structure.

        The estimator's γ and ``n_components`` are ignored — those are the
        sweep axes the plan exists to make cheap.
        """
        return cls(X, w_fair, w_x=w_x, **_plan_kwargs(estimator))

    # ------------------------------------------------------------- stages
    @property
    def graph(self) -> Precomputed:
        """Stage 1 — the validated/built graphs ``WX`` and ``WF`` (§3.1–3.2).

        Also carries the heat-kernel ``bandwidth`` a built ``WX`` used
        (``None`` for a precomputed one).
        """
        if self._graph is None:
            with span("plan.graph", kind=self.kind, n=int(self.X.shape[0])):
                self._graph = self._graph_stage()
        return self._graph

    @property
    def laplacians(self) -> Precomputed:
        """Stage 2 — the Laplacians ``L_X`` and ``L_F`` of Equations 5–6."""
        if self._laplacians is None:
            with span("plan.laplacian", kind=self.kind):
                self._laplacians = self._laplacian_stage()
        return self._laplacians

    @property
    def projection(self) -> Precomputed:
        """Stage 3 — γ-independent objective/constraint matrices (Eqs. 7–8)."""
        if self._projection is None:
            with span("plan.projection", kind=self.kind,
                      constraint=self.constraint):
                self._projection = self._projection_stage()
        return self._projection

    @property
    def d_max(self) -> int:
        """Largest latent dimensionality this plan can solve for."""
        return int(self.projection["d_max"])

    def _adopt_graph_stages(self, other) -> bool:
        """Reuse ``other``'s graph (and Laplacian) stage if it is this plan's.

        Plans over the very same input arrays (compared by identity) and
        the same graph settings build byte-identical graph stages with
        equal digests — a linear and a kernel plan on one training matrix,
        say — so the second plan takes the first one's instead of building
        the k-NN graph again. The Laplacian stage comes along when both
        plans use the same Laplacian flavor. Returns whether the graph
        stage was adopted; a plan that already built its own keeps it.
        """
        if (
            not isinstance(other, SpectralFitPlan)
            or self._graph is not None
            or other.X is not self.X
            or other.w_fair is not self.w_fair
            or other._w_x_input is not self._w_x_input
            or other._graph_params() != self._graph_params()
        ):
            return False
        self._graph = other.graph
        if other.normalized_laplacian == self.normalized_laplacian:
            self._laplacians = other.laplacians
        return True

    def _graph_params(self) -> dict:
        """The graph stage's digest parameters: every setting that shapes
        its output besides the input arrays."""
        n = self.X.shape[0]
        params = {"precomputed_wx": self._w_x_input is not None}
        if self._w_x_input is None:
            # The k-NN settings influence the output only when the graph is
            # actually built here; hashing them for a precomputed w_x would
            # give byte-identical stage outputs different digests.
            params.update(
                n_neighbors=int(min(self.n_neighbors, n - 1)),
                bandwidth=self.bandwidth,
                exclude_columns=_columns(self.exclude_columns),
            )
        return params

    def _graph_stage(self) -> Precomputed:
        n = self.X.shape[0]
        w_x = self._w_x_input
        bandwidth = None
        if w_x is None:
            bandwidth = resolve_bandwidth(
                self.X, self.bandwidth, exclude=self.exclude_columns
            )
            w_x = knn_graph(
                self.X,
                n_neighbors=min(self.n_neighbors, n - 1),
                bandwidth=bandwidth,
                exclude=self.exclude_columns,
            )
        digest = _stage_digest(
            "graph", self._graph_params(),
            {"X": self.X, "w_x": w_x, "w_fair": self.w_fair},
        )
        return Precomputed(
            "graph", digest,
            {"w_x": w_x, "w_fair": self.w_fair, "bandwidth": bandwidth},
        )

    def _laplacian_stage(self) -> Precomputed:
        graph = self.graph
        L_x = laplacian(graph["w_x"], normalized=self.normalized_laplacian)
        L_f = laplacian(graph["w_fair"], normalized=self.normalized_laplacian)
        digest = _stage_digest(
            "laplacian",
            {"normalized": self.normalized_laplacian, "upstream": graph.digest},
        )
        return Precomputed("laplacian", digest, {"L_x": L_x, "L_f": L_f})

    def _projection_stage(self) -> Precomputed:
        lap = self.laplacians
        data = (
            self._linear_projection(lap)
            if self.kind == "linear"
            else self._kernel_projection(lap)
        )
        params = {
            "kind": self.kind,
            "rescale": self.rescale,
            "constraint": self.constraint,
            "ridge": self.ridge,
            "upstream": lap.digest,
        }
        if self.kind == "kernel":
            params.update(
                kernel=self.kernel,
                kernel_bandwidth=data["fitted_bandwidth"],
                degree=self.degree,
                coef0=self.coef0,
            )
        return Precomputed("projection", _stage_digest("projection", params), data)

    def _scaled_laplacian(self, L) -> sp.csr_matrix:
        """Per-graph ``"degree"`` rescaling (matches ``combine_laplacians``)."""
        mean_degree = L.diagonal().mean()
        return L / mean_degree if mean_degree > 0 else L

    def _trace_normalized(self, M: np.ndarray) -> np.ndarray:
        """Per-graph ``"objective"`` rescaling: unit-trace quadratic form."""
        trace = np.trace(M)
        return M / trace if trace > 0 else M

    def _rescaled_pair(self, quadratic_form, lap: Precomputed):
        """``quadratic_form`` of ``L_x`` and of ``L_f``, under the rescale mode."""

        def rescaled(L):
            if self.rescale == "degree":
                return quadratic_form(self._scaled_laplacian(L))
            M = quadratic_form(L)
            return self._trace_normalized(M) if self.rescale == "objective" else M

        return rescaled(lap["L_x"]), rescaled(lap["L_f"])

    def _linear_projection(self, lap: Precomputed) -> dict:
        X = self.X
        m = X.shape[1]
        M_x, M_f = self._rescaled_pair(lambda L: objective_matrix(X, L), lap)
        data = {"M_x": M_x, "M_f": M_f, "d_max": m, "mix_ridge": 0.0,
                "symmetrize_mix": False, "whiten": None,
                "fitted_bandwidth": None}
        if self.constraint == "z":
            G = X.T @ X
            data["B"] = G + self.ridge * np.trace(G) / m * np.eye(m, dtype=G.dtype)
        else:
            data["B"] = None
        return data

    def _kernel_projection(self, lap: Precomputed) -> dict:
        from .kernel_pfr import kernel_matrix

        X = self.X
        n = X.shape[0]
        if self.kernel == "rbf" and self.kernel_bandwidth is None:
            # Freeze the data-dependent bandwidth now so every estimator
            # fitted from this plan kernelizes new points identically.
            fitted_bandwidth = median_heuristic(X)
        else:
            fitted_bandwidth = self.kernel_bandwidth
        K = kernel_matrix(
            X,
            X,
            kernel=self.kernel,
            bandwidth=fitted_bandwidth,
            degree=self.degree,
            coef0=self.coef0,
        )
        if self.constraint == "z":
            # Work in K's principal subspace: with K = U S Uᵀ and feature
            # coordinates Φ = U_r √S_r, kernel PFR reduces to *linear* PFR
            # on Φ under the ZZᵀ = I constraint. This keeps the eigensolver
            # out of K's (huge, uninformative) near-null space.
            spectrum, U = scipy.linalg.eigh(0.5 * (K + K.T))
            keep = spectrum > max(spectrum.max(), 0.0) * 1e-10
            if not keep.any():
                raise ValidationError("kernel matrix is numerically zero")
            S = spectrum[keep]
            U = U[:, keep]
            rank = int(keep.sum())
            Phi = U * np.sqrt(S)  # (n, r): K = Phi Phiᵀ
            M_x, M_f = self._rescaled_pair(lambda L: Phi.T @ (L @ Phi), lap)
            # The ZZᵀ = I constraint matrix B = diag(S) + ridge·c·I is
            # diagonal, so the generalized problem M v = λ B v whitens to a
            # *standard* one once: C = B^{-1/2} M B^{-1/2}, v = B^{-1/2} u.
            # Whitening commutes with the γ-mix (both are linear), and per-γ
            # a standard subset eigensolve is ~2× cheaper than repeating the
            # generalized reduction.
            whiten = 1.0 / np.sqrt(S + self.ridge * max(float(S.mean()), 1.0))
            M_x = M_x * whiten[:, None] * whiten[None, :]
            M_f = M_f * whiten[:, None] * whiten[None, :]
            return {
                "M_x": M_x,
                "M_f": M_f,
                "B": None,
                "whiten": whiten,
                "d_max": rank,
                "mix_ridge": 0.0,
                "symmetrize_mix": True,
                "kernel_spectrum": S,
                "kernel_basis": U,
                "fitted_bandwidth": fitted_bandwidth,
            }

        # constraint == "v": the verbatim Equation 8 operator K L K.
        M_x, M_f = self._rescaled_pair(lambda L: K @ (L @ K), lap)
        # K L K is rank-deficient whenever K is; a tiny ridge keeps the
        # eigensolver away from the exact null space.
        return {
            "M_x": M_x,
            "M_f": M_f,
            "B": None,
            "whiten": None,
            "d_max": n,
            "mix_ridge": float(self.ridge),
            "symmetrize_mix": True,
            "fitted_bandwidth": fitted_bandwidth,
        }

    # -------------------------------------------------------------- solve
    def _mixed(self, gamma: float) -> np.ndarray:
        proj = self.projection
        # (1-γ)·M_x + γ·M_f, then 0.5·(M + Mᵀ) and M + ridge·I, in two
        # buffers: the same elementwise operations as those expressions,
        # so the same bits, without their r×r temporaries.
        M = np.multiply(proj["M_x"], 1.0 - gamma)
        scratch = np.multiply(proj["M_f"], gamma)
        M += scratch
        if proj["symmetrize_mix"]:
            np.add(M, M.T, out=scratch)
            scratch *= 0.5
            M = scratch
        if proj["mix_ridge"]:
            M += proj["mix_ridge"] * np.eye(M.shape[0], dtype=M.dtype)
        return M

    @staticmethod
    def _slice_is_safe(eigenvalues: np.ndarray, d: int) -> bool:
        """Whether the first ``d`` eigenpairs of a larger solve are reusable.

        Slicing is exact only when the cut falls in a genuine eigengap: if
        λ_{d-1} ≈ λ_d the eigensolver may return *any* orthonormal basis of
        the degenerate cluster, and a dedicated d-solve could pick a
        different one. A relative gap of 1e-6 keeps the perturbation of the
        sliced eigenvectors far below the 1e-8 equivalence the sweep API
        guarantees against independent fits.
        """
        gap = eigenvalues[d] - eigenvalues[d - 1]
        scale = max(float(np.abs(eigenvalues).max()), 1e-12)
        return gap > 1e-6 * scale

    def solve(self, gamma: float, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Stage 4 — eigenpairs of the γ-mixed objective (Equations 7–8).

        Returns the ``d`` ascending eigenvalues and primal eigenvectors
        (``V`` for linear PFR; subspace coordinates for kernel PFR — use
        :meth:`fit` to obtain dual coefficients). Solutions are cached per
        γ at the largest ``d`` requested so far; asking for a smaller ``d``
        afterwards slices the cached eigenpairs when the cut falls in a
        clear eigengap, and performs (and memoizes) a dedicated solve when
        it would split a degenerate cluster — so every answer matches an
        independent ``fit()`` at that operating point.

        A cluster wider than ``d`` at the bottom of the spectrum makes the
        problem ill-posed, and no slicing rule can help: the eigensolver
        returns *some* basis of the cluster's subspace, picked by
        rounding. Kernel PFR on crime at γ = 1.0 is such a case: its
        kernel has full rank (1395 of 1395), so the fairness graph's null
        space puts 318 of the γ = 1 mix's 1395 eigenvalues (seed 2) below
        1e-10 times the largest, at about 1e-18, against d = 8.
        The returned basis, and every metric downstream, then depends on
        the BLAS thread count (seed 2's AUC reads 0.538 with numpy's pool
        at 2 threads and 0.614 at 1).
        """
        try:
            gamma = float(gamma)
        except (TypeError, ValueError):
            pass  # not a number: rejected below
        if not isinstance(gamma, float) or not 0.0 <= gamma <= 1.0:
            raise ValidationError(f"gamma must be in [0, 1]; got {gamma!r}")
        proj = self.projection
        d = int(d)
        d_max = int(proj["d_max"])
        if not 1 <= d <= d_max:
            if self.kind == "kernel" and self.constraint == "z":
                raise ValidationError(
                    f"n_components={d} exceeds the kernel rank {d_max}"
                )
            raise ValidationError(f"d must be in [1, {d_max}]; got {d}")

        # Per-γ cache accounting: a "hit" reuses previously computed
        # eigenpairs (slice or memoized exact solve), a "miss" pays an
        # eigensolve. Counters only — they never influence which path runs.
        registry = get_registry()
        gamma_label = f"{gamma:g}"
        cached = self._solves.get(gamma)
        if cached is not None and cached[0].shape[0] > d:
            if self._slice_is_safe(cached[0], d):
                registry.inc("plan.solve_cache.hits", gamma=gamma_label)
                eigenvalues, vectors = cached
                return eigenvalues[:d].copy(), vectors[:, :d].copy()
            exact = self._exact_solves.get((gamma, d))
            if exact is None:
                registry.inc("plan.solve_cache.misses", gamma=gamma_label)
                exact = self._solve_fresh(gamma, d)
                self._exact_solves[(gamma, d)] = exact
            else:
                registry.inc("plan.solve_cache.hits", gamma=gamma_label)
            eigenvalues, vectors = exact
            return eigenvalues.copy(), vectors.copy()

        if cached is None or cached[0].shape[0] < d:
            registry.inc("plan.solve_cache.misses", gamma=gamma_label)
            cached = self._solve_fresh(gamma, d)
            self._solves[gamma] = cached
        else:
            registry.inc("plan.solve_cache.hits", gamma=gamma_label)
        eigenvalues, vectors = cached
        return eigenvalues[:d].copy(), vectors[:, :d].copy()

    def _solve_fresh(self, gamma: float, d: int) -> tuple[np.ndarray, np.ndarray]:
        with span("plan.solve", kind=self.kind, gamma=float(gamma), d=int(d)):
            return self._solve_fresh_inner(gamma, d)

    def _solve_fresh_inner(
        self, gamma: float, d: int
    ) -> tuple[np.ndarray, np.ndarray]:
        proj = self.projection
        M = self._mixed(gamma)
        if proj["B"] is not None:
            return smallest_eigenvectors(M, d, B=proj["B"])
        whiten = proj["whiten"]
        if whiten is not None:
            # Pre-whitened generalized problem (kernel ZZᵀ = I): solve the
            # standard problem, then map back to B-orthonormal vectors.
            eigenvalues, U = smallest_eigenvectors(M, d)
            return eigenvalues, sign_normalize(U * whiten[:, None])
        return smallest_eigenvectors(M, d)

    # ---------------------------------------------------------- estimators
    def fit(self, estimator):
        """Populate ``estimator``'s fitted state from this plan (thin driver).

        The estimator must hold the plan's value of every structural name
        (``_STRUCTURAL``); only its ``gamma`` and ``n_components`` select
        the operating point. Returns the estimator.
        """
        if getattr(estimator, "extension", "exact") == "nystrom":
            raise ValidationError(
                "estimator has extension='nystrom'; fit it through "
                "repro.core.LandmarkPlan (or plan_for_estimator), not a "
                "bare SpectralFitPlan"
            )
        return self._populate(estimator)

    def _populate(self, estimator):
        """:meth:`fit` without its nystrom guard (``LandmarkPlan.fit``'s step)."""
        if _estimator_kind(estimator) != self.kind:
            wanted = "PFR" if self.kind == "linear" else "KernelPFR"
            raise ValidationError(
                f"a {self.kind} plan fits {wanted} estimators; "
                f"got {type(estimator).__name__}"
            )
        expected = self._structural_params()
        if self._w_x_input is not None:
            for name in _KNN:
                del expected[name]
        _check_match(expected, {name: getattr(estimator, name) for name in expected})
        # d is bounded by the features (linear) or the rows (kernel; the
        # landmark rows of a nystrom fit).
        bound = self.X.shape[1] if self.kind == "linear" else self.X.shape[0]
        d = _check_integer("n_components", estimator.n_components, 1, bound)
        eigenvalues, V = self.solve(estimator.gamma, d)
        if self.kind == "linear":
            estimator.components_ = V
        else:
            estimator._fitted_bandwidth = self.projection["fitted_bandwidth"]
            estimator.alphas_ = self._duals(V)
            estimator.X_fit_ = self.X
        estimator.eigenvalues_ = eigenvalues
        estimator.n_features_in_ = self.X.shape[1]
        estimator.plan_digests_ = self.stage_digests()
        # Documented contract: None for exact fits (LandmarkPlan.fit
        # overwrites these with the selected indices and rows).
        estimator.landmark_indices_ = None
        estimator.landmark_X_ = None
        return estimator

    def _duals(self, V: np.ndarray) -> np.ndarray:
        """Kernel PFR's dual coefficients ``A`` (``Z = K A``) for solved ``V``."""
        proj = self.projection
        if proj["whiten"] is None:
            return V  # constraint 'v': solve() returns the duals
        # Constraint 'z': Z = Φ V = K (U S^{-1/2} V), so the basis change
        # folds into the duals.
        return proj["kernel_basis"] @ (V / np.sqrt(proj["kernel_spectrum"])[:, None])

    def _structural_params(self) -> dict:
        """The plan's value of each structural name of its kind."""
        return {name: getattr(self, name) for name in _STRUCTURAL[self.kind]}

    # ------------------------------------------------------------ digests
    def stage_digests(self) -> dict:
        """Chained SHA-256 digests of every stage — the provenance record.

        Keys: ``graph``, ``laplacian``, ``projection``, ``solve``. The
        ``solve`` digest fingerprints the solver configuration (constraint,
        rescale, ridge) on top of the projection digest; it deliberately
        excludes γ and ``d``, which are per-estimator and already recorded
        as hyper-parameters in registry manifests.
        """
        projection = self.projection
        solve = _stage_digest(
            "solve",
            {
                "kind": self.kind,
                "constraint": self.constraint,
                "rescale": self.rescale,
                "ridge": self.ridge,
                # The retired eig_solver option's default for each kind
                # (PFR "auto", KernelPFR "dense"), kept as a constant so
                # every solve digest stays byte-stable across its removal.
                "eig_solver": "auto" if self.kind == "linear" else "dense",
                "upstream": projection.digest,
            },
        )
        return {
            "graph": self.graph.digest,
            "laplacian": self.laplacians.digest,
            "projection": projection.digest,
            "solve": solve,
        }


def fit_path(
    X,
    w_fair,
    *,
    gammas=(0.0, 0.25, 0.5, 0.75, 1.0),
    dims=None,
    estimator=None,
    w_x=None,
) -> list:
    """Fit a whole γ × d grid of PFR estimators from one shared plan.

    Builds a :class:`SpectralFitPlan` once, solves each γ at the largest
    requested dimensionality, and slices eigenpairs for the smaller dims —
    every estimator returned is numerically interchangeable with an
    independent ``fit()`` at the same operating point, at a fraction of
    the cost: the graph, Laplacian and projection stages are built once.

    Parameters
    ----------
    X, w_fair, w_x:
        Training inputs, exactly as :meth:`repro.core.PFR.fit` takes them.
    gammas:
        γ grid (Figures 4, 7, 10 sweep this axis).
    dims:
        Latent dimensionalities to return per γ; ``None`` uses the
        template estimator's ``n_components``.
    estimator:
        Template :class:`~repro.core.PFR` or
        :class:`~repro.core.KernelPFR` supplying the structural
        hyper-parameters; ``None`` means a default ``PFR()``. The template
        itself is never mutated — each grid point gets a fresh clone.

    Returns
    -------
    list
        Fitted estimators in γ-major order: ``[(γ₀,d₀), (γ₀,d₁), …,
        (γ₁,d₀), …]`` following the input order of both grids.
    """
    from ..ml.base import clone
    from .approx import plan_for_estimator
    from .pfr import PFR

    template = PFR() if estimator is None else estimator
    gammas = [float(g) for g in np.atleast_1d(np.asarray(gammas, dtype=np.float64))]
    if not gammas:
        raise ValidationError("fit_path needs at least one gamma")
    if dims is None:
        dims = [int(template.n_components)]
    else:
        dims = [int(d) for d in np.atleast_1d(np.asarray(dims))]
    if not dims:
        raise ValidationError("fit_path needs at least one dimensionality")
    if min(dims) < 1:
        raise ValidationError(f"dims must be >= 1; got {sorted(dims)[0]}")

    # Landmark templates (extension="nystrom") sweep on a LandmarkPlan so
    # even 100k-row fits pay the selection + landmark precomputation once.
    plan = plan_for_estimator(template, X, w_fair, w_x=w_x)
    d_max = max(dims)
    fitted = []
    for gamma in gammas:
        # One solve at d_max per γ; smaller dims below slice its eigenpairs.
        plan.solve(gamma, d_max)
        for d in dims:
            model = clone(template).set_params(gamma=gamma, n_components=d)
            plan.fit(model)
            fitted.append(model)
    return fitted
