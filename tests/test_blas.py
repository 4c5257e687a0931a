"""The one owner of the process's OpenBLAS pools (``repro._blas``).

``import repro`` gives numpy's pool one thread and leaves scipy's LAPACK
pool at OpenBLAS's default, unless the user sized the pools through the
environment. Three guarantees:

1. the policy itself, checked in fresh interpreters;
2. the outputs that are bitwise today (refresh goldens, served rows, the
   ``original``/``pfr`` cells of a COMPAS slice) do not depend on the size
   of numpy's pool;
3. process workers run under the pool sizes ``import repro`` settles on,
   so a parallel run is bitwise the serial one even for a cell whose bits
   do depend on the pool (crime kpfr at γ = 1, see
   :meth:`repro.core.SpectralFitPlan.solve`).
"""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import _blas
from repro.core import KernelPFR, LandmarkPlan, SpectralFitPlan
from repro.datasets import simulate_blobs
from repro.experiments import (
    Executor,
    ExperimentHarness,
    RunSpec,
    WorkloadFactory,
    run_spec,
)
from repro.graphs import knn_graph
from repro.serving import ModelRegistry, TransformService
from repro.store import RunLedger, encode_method_result
from test_core_plan import REFRESH_GOLDENS, baseline_problem, refreshed_child

pytestmark = pytest.mark.skipif(
    set(_blas.pool_sizes()) != {"numpy", "scipy"},
    reason="OpenBLAS thread setters not found (not an OpenBLAS build)",
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Reads scipy's pool before `import repro` can touch anything, then both
# pools after it.
_PROBE = """
import ctypes, json
import scipy.linalg._fblas as fblas
lib = ctypes.CDLL(fblas.__file__)
default = lib.scipy_openblas_get_num_threads()
import repro._blas
print(json.dumps({"default": default, "pools": repro._blas.pool_sizes()}))
"""


def _probe(**env_settings) -> dict:
    env = {
        k: v for k, v in os.environ.items() if k not in _blas._USER_SETTINGS
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])
    )
    env.update(env_settings)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


@contextlib.contextmanager
def numpy_pool(n):
    before = _blas.pool_sizes()["numpy"]
    _blas.set_threads("numpy", n)
    try:
        yield
    finally:
        _blas.set_threads("numpy", before)


def _at_each_pool_size(compute):
    """``compute()`` with numpy's pool at 1 and at 2 threads."""
    results = []
    for n in (1, 2):
        with numpy_pool(n):
            results.append(compute())
    return results


class TestPolicy:
    def test_import_gives_numpy_one_thread_and_scipy_the_default(self):
        probe = _probe()
        assert probe["pools"] == {"numpy": 1, "scipy": probe["default"]}

    def test_user_setting_is_left_alone(self):
        # OpenBLAS caps a requested size at the CPUs it may use.
        expected = min(2, _probe()["default"])
        pools = _probe(OPENBLAS_NUM_THREADS="2")["pools"]
        assert pools == {"numpy": expected, "scipy": expected}

    def test_gauge_follows_the_pools(self):
        from repro.obs import get_registry

        registry = get_registry()
        with numpy_pool(2):
            assert registry.gauge_value("blas.threads", pool="numpy") == (
                _blas.pool_sizes()["numpy"]
            )
        for pool, n in _blas.pool_sizes().items():
            assert registry.gauge_value("blas.threads", pool=pool) == n


class TestBitsDoNotDependOnNumpyPool:
    @pytest.mark.parametrize("config", sorted(REFRESH_GOLDENS))
    def test_refresh_goldens(self, config):
        X, WF = baseline_problem()
        golden = REFRESH_GOLDENS[config]
        one, two = _at_each_pool_size(
            lambda: refreshed_child(X, WF, golden["params"])
        )
        assert one == two == golden

    def test_served_batch(self, tmp_path):
        data = simulate_blobs(1200, n_features=12, seed=3)
        w_fair = knn_graph(
            data.side_information[:, None], n_neighbors=8, bandwidth=1.0
        )
        estimator = KernelPFR(
            n_components=4, gamma=0.25, extension="nystrom", landmarks=256
        )
        model = LandmarkPlan.for_estimator(estimator, data.X, w_fair).fit(
            estimator
        )
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("batch", model)
        rows = np.random.default_rng(5).normal(size=(64, data.X.shape[1]))

        def serve():
            # A fresh service per pool size: its cache would hide a change.
            return TransformService(registry).transform("batch@latest", rows)

        one, two = _at_each_pool_size(serve)
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("method", ["original", "pfr"])
    def test_compas_slice_cells(self, method):
        data = WorkloadFactory("compas", scale=0.25)(2)

        def cell():
            result = ExperimentHarness(data, seed=2).run_method(method, gamma=0.5)
            return json.dumps(encode_method_result(result), sort_keys=True)

        one, two = _at_each_pool_size(cell)
        assert one == two


class TestWorkersRunUnderTheOwnersPools:
    # Crime at scale 0.1 is the smallest size at which the γ = 1 kpfr
    # spectrum still has a zero cluster wider than d whose basis the pool
    # size picks: at 0.1 seeds 0 and 2 give other bits with numpy's pool
    # at 2 than at 1, at 0.08 and below they do not.
    SPEC = {
        "datasets": [{"name": "crime", "scale": 0.1}],
        "methods": ["kpfr"],
        "gammas": [1.0],
        "seeds": [0, 2],
    }

    def test_zero_cluster_wider_than_d(self):
        harness = ExperimentHarness(WorkloadFactory("crime", scale=0.1)(2), seed=2)
        harness.run_method("kpfr", gamma=1.0)
        (plan,) = [
            v for v in harness._plan_cache.values()
            if isinstance(v, SpectralFitPlan)
        ]
        eigenvalues = np.linalg.eigvalsh(plan._mixed(1.0))
        zeros = eigenvalues < 1e-10 * np.abs(eigenvalues).max()
        assert zeros.sum() > harness.n_components_

    def test_spawned_workers_match_serial_bitwise(self, tmp_path):
        spec = RunSpec.from_dict(self.SPEC)
        serial = run_spec(spec, store=tmp_path / "serial")
        parallel = run_spec(
            spec,
            store=tmp_path / "parallel",
            # spawn: each worker imports repro afresh instead of inheriting
            # this process's pools through fork.
            workers=Executor(workers=2, start_method="spawn"),
        )

        def bits(report):
            return {
                key: json.dumps(encode_method_result(r), sort_keys=True)
                for key, r in report.results.items()
            }

        assert len(serial.results) == 2
        assert bits(parallel) == bits(serial)
        # Each worker's ledger entries record the pools it computed under.
        entries = RunLedger(tmp_path / "parallel").ls(kind="method_result")
        assert [e.blas for e in entries] == [_blas.pool_sizes()] * 2
