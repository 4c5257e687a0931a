"""Tests for repro.experiments.spec — declarative run specs + the runner.

Includes the kill-and-resume acceptance: interrupting a multi-seed γ-sweep
midway and re-running the same spec recomputes only the missing cells and
yields bitwise-identical aggregates to an uninterrupted run, both serially
and at ``workers=2``.
"""

import json
import re

import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    ExperimentHarness,
    RunSpec,
    load_run_spec,
    run_spec,
)
from repro.store import RunLedger

_SPEC = {
    "name": "tiny",
    "datasets": [{"name": "synthetic", "scale": 0.3}],
    "methods": ["original", "pfr"],
    "gammas": [0.0, 0.5],
    "seeds": [0, 1],
    "harness": {"n_components": 2},
    "method_params": {"pfr": {"C": 1.0}},
}


def _sweep_spec():
    """A 6-cell single-method sweep used by the resume tests."""
    return RunSpec.from_dict({
        "name": "resume",
        "datasets": [{"name": "synthetic", "scale": 0.3}],
        "methods": ["pfr"],
        "gammas": [0.0, 0.3, 0.6],
        "seeds": [0, 1],
        "harness": {"n_components": 2},
    })


def _interrupt_after(monkeypatch, n_cells: int):
    """Patch the executor's per-cell evaluation to die after ``n_cells``
    successful cells."""
    original = ExperimentHarness._run_method_direct
    calls = {"n": 0}

    def failing(self, *args, **kwargs):
        if calls["n"] >= n_cells:
            raise RuntimeError("simulated kill")
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ExperimentHarness, "_run_method_direct", failing)


def _assert_same_aggregates(a, b):
    assert set(a.aggregates) == set(b.aggregates)
    for key in a.aggregates:
        assert a.aggregates[key].mean == b.aggregates[key].mean
        assert a.aggregates[key].std == b.aggregates[key].std
        assert a.aggregates[key].n_runs == b.aggregates[key].n_runs


class TestRunSpecValidation:
    def test_happy_path(self):
        spec = RunSpec.from_dict(_SPEC)
        assert spec.name == "tiny"
        assert spec.datasets == (("synthetic", 0.3),)
        assert spec.methods == ("original", "pfr")
        assert spec.gammas == (0.0, 0.5)
        assert spec.seeds == (0, 1)
        assert spec.n_cells == 8

    def test_bare_dataset_name(self):
        spec = RunSpec.from_dict({**_SPEC, "datasets": ["synthetic"]})
        assert spec.datasets == (("synthetic", 1.0),)

    def test_defaults(self):
        spec = RunSpec.from_dict(
            {"datasets": ["synthetic"], "methods": ["pfr"]}
        )
        assert spec.name == "run"
        assert spec.gammas == (0.5,)
        assert spec.seeds == (0,)

    def test_seed_count_derivation(self):
        from repro.experiments import spawn_seeds

        spec = RunSpec.from_dict({**_SPEC, "seeds": 3})
        assert spec.seeds == spawn_seeds(0, 3)
        rooted = RunSpec.from_dict(
            {**_SPEC, "seeds": {"count": 3, "root": 7}}
        )
        assert rooted.seeds == spawn_seeds(7, 3)

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"datasets": []}, "datasets"),
            ({"datasets": ["unheard-of"]}, "unknown dataset"),
            ({"datasets": [{"name": "synthetic", "bogus": 1}]}, "bogus"),
            (
                {"datasets": [
                    {"name": "synthetic", "scale": 0.3},
                    {"name": "synthetic", "scale": 1.0},
                ]},
                "duplicates",
            ),
            ({"methods": []}, "methods"),
            ({"methods": ["pfr", "pfr"]}, "duplicates"),
            ({"gammas": []}, "gamma"),
            ({"gammas": [0.5, 0.5]}, "duplicates"),
            ({"seeds": []}, "seed"),
            ({"seeds": [1, 1]}, "duplicates"),
            ({"seeds": 0}, "count"),
            ({"seeds": {"count": 2, "bogus": 1}}, "bogus"),
            ({"harness": {"seed": 1}}, "harness"),
            ({"harness": {"workers": 2}}, "harness"),
            ({"method_params": {"lfr": {}}}, "method_params"),
            ({"method_params": {"pfr": {"gamma": 0.3}}}, "gammas' axis"),
            ({"method_params": {"pfr": {"workers": 2}}}, "runtime"),
            ({"bogus": 1}, "bogus"),
            ({"method_params": {"pfr": 3}}, "method_params"),
            ({"method_params": [1]}, "method_params"),
            ({"harness": [1, 2]}, "harness"),
            ({"gammas": 0.5}, "gammas"),
            ({"gammas": [float("nan")]}, "gammas"),
            ({"gammas": [float("nan"), float("nan")]}, "gammas"),
            ({"gammas": [float("inf")]}, "gammas"),
            ({"gammas": [1.5]}, "gammas"),
            ({"gammas": ["0.5"]}, "gammas"),
            ({"methods": "pfr"}, "methods"),
            ({"methods": ["nope"]}, "methods"),
            ({"methods": ["pfr++"]}, "methods"),
            ({"seeds": [1.7]}, "seeds"),
            ({"seeds": True}, "seeds"),
            ({"seeds": [-1]}, "seeds"),
        ],
    )
    def test_rejections(self, patch, message):
        with pytest.raises(ValidationError, match=message):
            RunSpec.from_dict({**_SPEC, **patch})

    def test_non_mapping(self):
        with pytest.raises(ValidationError, match="mapping"):
            RunSpec.from_dict([1, 2])

    @pytest.mark.parametrize(
        "method, params",
        [
            ("pfr", {"knn_backnd": "exact"}),
            ("pfr+", {"n_prototypes": 5}),
            ("ifair", {"protected_columns": [0]}),
            ("original", {"landmarks": 10}),
        ],
    )
    def test_method_params_key_not_taken_by_the_estimator(self, method, params):
        # Such a key used to load and then kill run_spec with a bare
        # TypeError from the estimator's constructor.
        spec = {**_SPEC, "methods": [method], "method_params": {method: params}}
        key = next(iter(params))
        match = re.escape(f"[{method!r}]") + f".*{key!r}"
        with pytest.raises(ValidationError, match=match):
            RunSpec.from_dict(spec)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("knn_backend", "lsh"),
            ("knn_backend", "blocked"),
            ("knn_backend", "exact"),
            ("knn_seed", 0),
            ("dtype", "float32"),
            ("eig_solver", "sparse"),
            ("eig_solver", "lobpcg"),
            ("eig_solver", "randomized"),
        ],
    )
    @pytest.mark.parametrize("method", ["pfr", "kpfr"])
    def test_retired_numeric_option_named(self, method, key, value):
        spec = {**_SPEC, "methods": [method],
                "method_params": {method: {"C": 1.0, key: value}}}
        with pytest.raises(ValidationError, match=f"{key!r} is a retired"):
            RunSpec.from_dict(spec)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"pfr": {"knn_backnd": "exact"}},
             "harness.method_overrides['pfr'] sets unknown keys ['knn_backnd']"),
            # C goes to the classifier from method_params only; an override
            # would hand it to the estimator's constructor.
            ({"pfr": {"C": 1.0}},
             "harness.method_overrides['pfr'] sets unknown keys ['C']"),
            ({"kpfr": {"gamma": 0.3}},
             "harness.method_overrides['kpfr'] sets unknown keys ['gamma']"),
            ({"pfr": {"dtype": "float32"}},
             "harness.method_overrides['pfr']: 'dtype' is a retired"),
            ({"pfr+": {"rescale": "none"}},
             "harness.method_overrides names unknown method 'pfr+'"),
            ({"nope": {}}, "harness.method_overrides names unknown method 'nope'"),
            ({"lfr": 3}, "harness.method_overrides['lfr']\" must be a mapping"),
            ([1], "'harness.method_overrides' must be a mapping"),
        ],
        ids=["unknown-key", "C", "gamma", "retired", "augmented-name",
             "unknown-method", "params-not-mapping", "not-mapping"],
    )
    def test_method_overrides_checked(self, overrides, message):
        # Such an override used to load and then kill run_spec with a bare
        # TypeError from the estimator's constructor.
        spec = {**_SPEC, "harness": {"method_overrides": overrides}}
        with pytest.raises(ValidationError, match=re.escape(message)):
            RunSpec.from_dict(spec)

    def test_method_overrides_estimator_arguments_accepted(self):
        overrides = {"pfr": {"rescale": "degree"}, "lfr": {"a_z": 1.0}}
        spec = RunSpec.from_dict(
            {**_SPEC, "harness": {"method_overrides": overrides}}
        )
        assert spec.harness["method_overrides"] == overrides

    def test_estimator_arguments_and_C_accepted(self):
        spec = RunSpec.from_dict({
            **_SPEC, "methods": ["pfr", "kpfr", "lfr", "hardt"],
            "method_params": {
                "pfr": {"C": 10.0, "rescale": "degree", "constraint": "v"},
                "kpfr": {"kernel": "poly", "n_neighbors": 5},
                "lfr": {"n_prototypes": 5, "seed": 3},
                "hardt": {"C": 0.5},
            },
        })
        assert spec.method_params["kpfr"] == {"kernel": "poly", "n_neighbors": 5}


class TestLoadRunSpec:
    def test_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_SPEC))
        assert load_run_spec(path) == RunSpec.from_dict(_SPEC)

    def test_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(_SPEC))
        assert load_run_spec(path) == RunSpec.from_dict(_SPEC)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_run_spec(tmp_path / "nope.yaml")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_run_spec(path)

    def test_example_spec_loads(self):
        spec = load_run_spec("examples/run_spec.yaml")
        assert spec.n_cells > 0


class TestRunSpecExecution:
    def test_cold_then_warm(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        cold = run_spec(spec, store=tmp_path)
        assert (cold.n_total, cold.n_cached, cold.n_computed) == (8, 0, 8)
        warm = run_spec(spec, store=tmp_path)
        assert (warm.n_total, warm.n_cached, warm.n_computed) == (8, 8, 0)
        assert warm.hit_rate == 1.0
        _assert_same_aggregates(cold, warm)

    def test_results_match_storeless_harness(self, tmp_path):
        from repro.experiments import make_workload

        spec = RunSpec.from_dict(_SPEC)
        report = run_spec(spec, store=tmp_path)
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2,
        )
        direct = harness.run_method("pfr", gamma=0.5, C=1.0)
        ledgered = report.results[("synthetic", "pfr", 0.5, 0)]
        assert ledgered.auc == direct.auc
        assert ledgered.consistency_wf == direct.consistency_wf
        assert ledgered.rates.positive_rate[0] == direct.rates.positive_rate[0]

    def test_incremental_gamma_extension(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        first = run_spec(spec, store=tmp_path)
        widened = RunSpec.from_dict({**_SPEC, "gammas": [0.0, 0.5, 0.9]})
        report = run_spec(widened, store=tmp_path)
        # Only the new γ's cells (2 methods × 2 seeds) are computed.
        assert report.n_total == 12
        assert report.n_cached == 8
        assert report.n_computed == 4
        computed = [c for c in report.cells if not c["cached"]]
        assert {c["gamma"] for c in computed} == {0.9}
        # Widening the grid leaves the shared grid's numbers bitwise alone.
        assert first.aggregates
        for key, aggregate in first.aggregates.items():
            assert report.aggregates[key].mean == aggregate.mean
            assert report.aggregates[key].std == aggregate.std

    def test_incremental_seed_extension(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        run_spec(spec, store=tmp_path)
        widened = RunSpec.from_dict({**_SPEC, "seeds": [0, 1, 2]})
        report = run_spec(widened, store=tmp_path)
        computed = [c for c in report.cells if not c["cached"]]
        assert {c["seed"] for c in computed} == {2}

    def test_requires_store(self):
        with pytest.raises(ValidationError, match="store"):
            run_spec(RunSpec.from_dict(_SPEC), store=None)

    def test_single_seed_has_no_aggregates(self, tmp_path):
        spec = RunSpec.from_dict({**_SPEC, "seeds": [0]})
        report = run_spec(spec, store=tmp_path)
        assert report.aggregates == {}
        assert len(report.results) == 4

    def test_report_json_shape(self, tmp_path):
        report = run_spec(RunSpec.from_dict(_SPEC), store=tmp_path)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["total"] == 8
        assert payload["computed"] == 8
        assert payload["hit_rate"] == 0.0
        assert len(payload["cells"]) == 8
        assert any("gamma=0.5" in key for key in payload["aggregates"])

    def test_parallel_matches_serial(self, tmp_path):
        spec = RunSpec.from_dict(_SPEC)
        serial = run_spec(spec, store=tmp_path / "serial")
        parallel = run_spec(spec, store=tmp_path / "parallel", workers=2)
        _assert_same_aggregates(serial, parallel)


class TestKillAndResume:
    """The acceptance criterion: interrupt midway, resume, bit-identical."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """An uninterrupted run of the sweep spec."""
        return run_spec(
            _sweep_spec(), store=tmp_path_factory.mktemp("reference")
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_resume_recomputes_only_missing_cells(
        self, tmp_path, monkeypatch, reference, workers
    ):
        spec = _sweep_spec()
        killed_after = 2
        _interrupt_after(monkeypatch, killed_after)
        with pytest.raises(RuntimeError, match="simulated kill"):
            run_spec(spec, store=tmp_path)
        monkeypatch.undo()
        # The completed cells survived the crash...
        ledger = RunLedger(tmp_path)
        assert len(ledger.ls(kind="method_result")) == killed_after

        resumed = run_spec(spec, store=tmp_path, workers=workers)
        # ...and the resume recomputed exactly the missing cells.
        assert resumed.n_total == spec.n_cells
        assert resumed.n_cached == killed_after
        assert resumed.n_computed == spec.n_cells - killed_after
        # Bitwise-identical aggregates to the uninterrupted reference.
        _assert_same_aggregates(resumed, reference)

    def test_interrupted_harness_sweep_resumes(self, tmp_path, monkeypatch):
        """Resume also works below the spec layer, on a bare gamma_sweep."""
        from repro.experiments import make_workload

        def harness():
            return ExperimentHarness(
                make_workload("synthetic", seed=0, scale=0.3),
                seed=0, n_components=2, store=tmp_path,
            )

        reference = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2,
        ).gamma_sweep([0.0, 0.4, 0.8])

        _interrupt_after(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            harness().gamma_sweep([0.0, 0.4, 0.8])
        monkeypatch.undo()
        assert len(RunLedger(tmp_path).ls()) == 2

        resumed = harness().gamma_sweep([0.0, 0.4, 0.8])
        assert [r.auc for r in resumed] == [r.auc for r in reference]
        assert [r.consistency_wf for r in resumed] == [
            r.consistency_wf for r in reference
        ]


class TestHarnessStoreIntegration:
    def test_run_method_cache_hit_skips_computation(self, tmp_path, monkeypatch):
        from repro.experiments import make_workload

        data = make_workload("synthetic", seed=0, scale=0.3)
        first = ExperimentHarness(
            data, seed=0, n_components=2, store=tmp_path
        ).run_method("pfr", gamma=0.5)

        harness = ExperimentHarness(
            data, seed=0, n_components=2, store=tmp_path
        )
        monkeypatch.setattr(
            ExperimentHarness, "_run_method_direct",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("cache miss: recomputed a ledgered cell")
            ),
        )
        cached = harness.run_method("pfr", gamma=0.5)
        assert cached.auc == first.auc

    def test_tune_reads_through_ledger(self, tmp_path, monkeypatch):
        from repro.experiments import make_workload

        grid = {"gamma": [0.2, 0.8], "C": [1.0]}
        data = make_workload("synthetic", seed=0, scale=0.3)
        first = ExperimentHarness(
            data, seed=0, n_components=2, store=tmp_path
        ).tune("pfr", grid, n_splits=3)
        assert len(RunLedger(tmp_path).ls(kind="tuned_point")) == 2

        harness = ExperimentHarness(
            data, seed=0, n_components=2, store=tmp_path
        )
        monkeypatch.setattr(
            ExperimentHarness, "_score_grid_point_direct",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("cache miss: re-scored a ledgered grid point")
            ),
        )
        warm = harness.tune("pfr", grid, n_splits=3)
        assert warm["best_params"] == first["best_params"]
        assert warm["best_score"] == first["best_score"]
        assert warm["results"] == first["results"]

    def test_tune_grid_extension_scores_only_new_points(self, tmp_path):
        from repro.experiments import make_workload

        data = make_workload("synthetic", seed=0, scale=0.3)
        harness = ExperimentHarness(
            data, seed=0, n_components=2, store=tmp_path
        )
        harness.tune("pfr", {"gamma": [0.2, 0.8], "C": [1.0]}, n_splits=3)
        harness.tune("pfr", {"gamma": [0.2, 0.8, 0.5], "C": [1.0]}, n_splits=3)
        assert len(RunLedger(tmp_path).ls(kind="tuned_point")) == 3

    def test_repeat_methods_through_store(self, tmp_path):
        from repro.experiments import WorkloadFactory, repeat_methods

        factory = WorkloadFactory("synthetic", scale=0.3)
        kwargs = dict(
            seeds=(0, 1), gamma=0.5,
            harness_kwargs={"n_components": 2},
        )
        plain = repeat_methods(factory, ("pfr",), **kwargs)
        stored = repeat_methods(factory, ("pfr",), store=tmp_path, **kwargs)
        assert stored["pfr"].mean == plain["pfr"].mean
        assert stored["pfr"].std == plain["pfr"].std
        assert len(RunLedger(tmp_path).ls(kind="method_result")) == 2
        # Warm re-run decodes every cell from the ledger.
        warm = repeat_methods(factory, ("pfr",), store=tmp_path, **kwargs)
        assert warm["pfr"].mean == plain["pfr"].mean

    def test_figure_driver_reads_through_store(self, tmp_path):
        from repro.experiments import figure2

        cold = figure2(scale=0.3, store=tmp_path)
        assert len(RunLedger(tmp_path).ls(kind="method_result")) == 4
        warm = figure2(scale=0.3, store=tmp_path)
        plain = figure2(scale=0.3)
        for method, result in plain.data["results"].items():
            assert warm.data["results"][method].auc == result.auc
        assert warm.text == cold.text == plain.text
