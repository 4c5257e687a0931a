"""Tests for the one experiment-cell executor (repro.experiments.spec).

run_spec, ExperimentHarness.run_methods/gamma_sweep and the repeat_*
functions all compile to cells and run them through one skip → dispatch
→ read-back path. These tests pin its dispatch grain (tasks per call,
prepares per slice), the single cell digest every entry point shares,
and the spec-boundary fixes that ride along (report JSON keys, CLI exit
code on a malformed spec).
"""

import json
import multiprocessing
import pickle
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core import SpectralFitPlan
from repro.core.plan import Precomputed
from repro.experiments import (
    AggregateResult,
    Executor,
    ExperimentHarness,
    RunReport,
    RunSpec,
    WorkloadFactory,
    repeat_gamma_sweep,
    repeat_methods,
    run_spec,
)
from repro.experiments import spec as spec_module
from repro.ml.base import clone
from repro.store import RunLedger, encode_method_result

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the prepare log relies on fork-inherited monkeypatches",
)

_SPEC = {
    "name": "executor",
    "datasets": [{"name": "synthetic", "scale": 0.3}],
    "methods": ["original", "pfr"],
    "gammas": [0.0, 0.5],
    "seeds": [0, 1],
    "harness": {"n_components": 2},
    "method_params": {"pfr": {"C": 1.0}},
}


def _fork_executor(workers: int) -> Executor:
    return Executor(backend="process", workers=workers, start_method="fork")


@pytest.fixture
def prepare_log(tmp_path, monkeypatch):
    """Log every real preparation (dataset/seed) to a file; forked
    workers inherit the patch, and O_APPEND lines never interleave. The
    pause keeps both workers busy at once, so a per-cell grain would
    reliably hand each worker cells of both slices."""
    path = tmp_path / "prepares.log"
    original = ExperimentHarness.prepare

    def logged(self):
        if not self._prepared:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(f"{self.dataset.name}/{self.seed}\n")
            time.sleep(0.2)
        return original(self)

    monkeypatch.setattr(ExperimentHarness, "prepare", logged)

    def read():
        return sorted(path.read_text().split()) if path.exists() else []

    return read


@pytest.fixture
def dispatched(monkeypatch):
    """Record the task count of every executor map of method cells."""
    counts = []
    original = Executor.map

    def recording(self, fn, tasks, *, state=None):
        tasks = list(tasks)
        if fn is spec_module._cells_task:
            counts.append(len(tasks))
        return original(self, fn, tasks, state=state)

    monkeypatch.setattr(Executor, "map", recording)
    return counts


@needs_fork
class TestPreparesPerSlice:
    def test_run_spec_prepares_each_slice_once(self, tmp_path, prepare_log):
        spec = RunSpec.from_dict({
            **_SPEC, "methods": ["pfr"], "method_params": {},
            "gammas": [0.0, 0.25, 0.5, 0.75, 1.0],
        })
        run_spec(spec, store=tmp_path / "ledger", workers=_fork_executor(2))
        assert prepare_log() == ["synthetic/0", "synthetic/1"]

    def test_repeat_gamma_sweep_prepares_each_slice_once(self, prepare_log):
        repeat_gamma_sweep(
            WorkloadFactory("synthetic", scale=0.2), [0.0, 0.5, 1.0],
            seeds=(0, 1), harness_kwargs={"n_components": 2},
            workers=_fork_executor(2),
        )
        assert prepare_log() == ["synthetic/0", "synthetic/1"]


class TestDispatchGrain:
    def test_one_harness_sweep_splits_across_workers(self, dispatched):
        harness = ExperimentHarness(
            WorkloadFactory("synthetic", scale=0.2)(0), seed=0, n_components=2
        )
        gammas = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
        fanned = harness.gamma_sweep(
            gammas, workers=Executor(backend="process", workers=4)
        )
        assert dispatched == [4]
        serial = harness.gamma_sweep(gammas)
        assert [r.summary() for r in fanned] == [r.summary() for r in serial]

    def test_repeat_keeps_one_task_per_seed(self, dispatched):
        repeat_gamma_sweep(
            WorkloadFactory("synthetic", scale=0.2), [0.5],
            seeds=8, harness_kwargs={"n_components": 2},
            workers=Executor(backend="process", workers=4),
        )
        assert dispatched == [8]

    def test_serial_run_spec_dispatches_slice_by_slice(
        self, tmp_path, dispatched
    ):
        run_spec(RunSpec.from_dict(_SPEC), store=tmp_path)
        assert dispatched == [2]

    def test_warm_run_dispatches_nothing(self, tmp_path, dispatched):
        spec = RunSpec.from_dict(_SPEC)
        run_spec(spec, store=tmp_path)
        run_spec(spec, store=tmp_path)
        assert dispatched == [2, 0]


class TestOneDigestAcrossEntryPoints:
    def test_warm_store_serves_every_entry_point(self, tmp_path):
        """run_spec, run_methods, gamma_sweep and repeat_* key cells the
        same way: on a store warmed by run_spec they add no entry and
        return the report's results and aggregates exactly."""
        store = tmp_path / "ledger"
        report = run_spec(RunSpec.from_dict(_SPEC), store=store)
        ledger = RunLedger(store)
        entries = len(ledger.ls())
        assert entries == 8

        factory = WorkloadFactory("synthetic", scale=0.3)
        harness = ExperimentHarness(
            factory(1), seed=1, n_components=2, store=store
        )
        methods = harness.run_methods(["original", "pfr"], gamma=0.5)
        for method, result in methods.items():
            assert result == report.results[("synthetic", method, 0.5, 1)]
        sweep = harness.gamma_sweep([0.0, 0.5], method="pfr")
        assert sweep == [
            report.results[("synthetic", "pfr", gamma, 1)]
            for gamma in (0.0, 0.5)
        ]

        kwargs = dict(seeds=(0, 1), harness_kwargs={"n_components": 2},
                      store=store)
        per_method = repeat_methods(
            factory, ("original", "pfr"), gamma=0.0, **kwargs
        )
        for method, aggregate in per_method.items():
            assert aggregate == report.aggregates[("synthetic", method, 0.0)]
        per_gamma = repeat_gamma_sweep(factory, [0.0, 0.5], **kwargs)
        for gamma, aggregate in per_gamma.items():
            assert aggregate == report.aggregates[("synthetic", "pfr", gamma)]

        assert len(ledger.ls()) == entries


_HOIST_SPEC = {
    "name": "hoists",
    "datasets": [{"name": "synthetic", "scale": 0.2}],
    "methods": ["original", "original+", "hardt", "ifair", "lfr+", "pfr",
                "pfr+", "kpfr", "kpfr+"],
    "gammas": [0.0, 0.25, 1.0],
    "seeds": [0, 1],
    "harness": {
        "n_components": 2,
        "method_overrides": {"ifair": {"max_iter": 20},
                             "lfr": {"max_iter": 20}},
    },
}


def _encoded(result) -> str:
    return json.dumps(encode_method_result(result), sort_keys=True)


def _reference_mixed(proj, gamma):
    """SpectralFitPlan._mixed as plain expressions."""
    M = (1.0 - gamma) * proj["M_x"] + gamma * proj["M_f"]
    if proj["symmetrize_mix"]:
        M = 0.5 * (M + M.T)
    if proj["mix_ridge"]:
        M = M + proj["mix_ridge"] * np.eye(M.shape[0], dtype=M.dtype)
    return M


class TestSliceHoistsAreBitwise:
    """A slice computes its γ-independent work once — one graph stage per
    training matrix, one Gram block per kpfr plan, one evaluation per
    γ-free method — and every cell must still equal, bit for bit, the
    same cell run alone on a fresh harness."""

    def test_cold_run_spec_equals_fresh_harness_cells(self, tmp_path):
        spec = RunSpec.from_dict(_HOIST_SPEC)
        report = run_spec(spec, store=tmp_path)
        factory = WorkloadFactory("synthetic", scale=0.2)
        for seed in spec.seeds:
            data = factory(seed)
            for method in spec.methods:
                for gamma in spec.gammas:
                    fresh = ExperimentHarness(
                        data, seed=seed, **spec.harness
                    ).run_method(method, gamma=gamma)
                    stored = report.results[("synthetic", method, gamma, seed)]
                    assert _encoded(stored) == _encoded(fresh), (
                        method, gamma, seed
                    )

    def test_shared_graph_stage_keeps_plan_digests(self):
        harness = ExperimentHarness(
            WorkloadFactory("synthetic", scale=0.2)(0), seed=0, n_components=2
        ).prepare()
        models = {
            base: harness._fit_base_estimator(
                base, harness._split_rows(harness.X_train), gamma=0.5,
                method_params={},
            )
            for base in ("pfr", "kpfr")
        }
        plans = {key[0]: plan for key, plan in harness._plan_cache.items()
                 if key[0] in models}
        assert plans["kpfr"].graph is plans["pfr"].graph
        assert plans["kpfr"].laplacians is plans["pfr"].laplacians
        for model in models.values():
            alone = clone(model).fit(harness.X_train, harness.W_fair_train)
            assert model.plan_digests_ == alone.plan_digests_

    def test_pickled_sweep_carries_no_gram_rows(self):
        harness = ExperimentHarness(
            WorkloadFactory("synthetic", scale=0.2)(0), seed=0, n_components=2
        )
        harness.gamma_sweep([0.0, 1.0], method="kpfr")
        gram = [value for key, value in harness._plan_cache.items()
                if key[-1] == "gram"]
        assert len(gram) == 1
        payload = pickle.dumps(harness)
        assert gram[0][0].tobytes() not in payload
        assert pickle.loads(payload)._plan_cache == {}

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("symmetrize, ridge", [(True, 0.0), (False, 0.0),
                                                   (True, 1e-3)])
    def test_mixed_matches_reference_bits(self, gamma, symmetrize, ridge):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 5))
        plan = SpectralFitPlan(X, np.zeros((8, 8)))
        M_x = rng.standard_normal((5, 5))
        M_f = rng.standard_normal((5, 5))
        # Negative M_x against -0.0 in M_f: at γ = 1 the mix keeps -0.0.
        M_x[0, 1] = M_x[1, 0] = -1.0
        M_f[0, 1] = M_f[1, 0] = -0.0
        plan._projection = Precomputed("projection", "test", {
            "M_x": M_x, "M_f": M_f, "symmetrize_mix": symmetrize,
            "mix_ridge": ridge,
        })
        got = plan._mixed(gamma)
        want = _reference_mixed(plan.projection, gamma)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if gamma == 1.0:
            # The ridge's + 0.0 off the diagonal turns -0.0 into +0.0.
            assert got[0, 1] == 0.0
            assert np.signbit(got[0, 1]) == (ridge == 0.0)


class TestReportJsonKeys:
    def test_close_gammas_keep_distinct_keys(self):
        gammas = (0.0, 0.25, 1.0, 0.1234567, 0.1234568)
        spec = RunSpec.from_dict({**_SPEC, "methods": ["pfr"],
                                  "method_params": {}, "gammas": list(gammas)})
        aggregates = {
            ("synthetic", "pfr", gamma): AggregateResult(
                method="pfr", dataset="synthetic", n_runs=2,
                mean={"auc": gamma}, std={"auc": 0.0},
            )
            for gamma in gammas
        }
        report = RunReport(spec=spec, cells=[], results={},
                           aggregates=aggregates)
        payload = report.to_json()["aggregates"]
        assert len(payload) == len(gammas)
        # Gammas that :g spells exactly keep their historical keys.
        for key in ("gamma=0", "gamma=0.25", "gamma=1"):
            assert f"synthetic/pfr/{key}" in payload
        assert payload["synthetic/pfr/gamma=0.1234567"]["mean"] == {
            "auc": 0.1234567
        }


class TestCliMalformedSpec:
    def test_malformed_spec_exits_2_naming_the_field(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**_SPEC, "gammas": 0.5}))
        code = main(["experiments", "run", str(path),
                     "--store", str(tmp_path / "ledger")])
        assert code == 2
        assert "'gammas'" in capsys.readouterr().err
