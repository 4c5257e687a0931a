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
import time

import pytest

from repro.cli import main
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
from repro.store import RunLedger

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
