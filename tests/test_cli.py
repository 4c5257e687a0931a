"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.scale == 1.0
        assert args.seed == 0
        assert args.output is None

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "figure2", "--scale", "0.3", "--seed", "7", "--output", "x.txt"]
        )
        assert args.scale == 0.3
        assert args.seed == 7
        assert args.output == "x.txt"


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        for i in range(1, 11):
            assert f"figure{i}" in out
        assert "[deviation]" in out

    def test_experiments_list_subcommand_removed(self, capsys):
        # `repro list` prints the whole registry; the old
        # `repro experiments list` duplicate is gone.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "list"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Base-rate" in out

    def test_run_figure2_small(self, capsys):
        assert main(["run", "figure2", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Consistency(WF)" in out
        assert "pfr" in out

    def test_run_prints_the_record_section(self, capsys):
        assert main(["run", "table1", "--scale", "0.05", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "`python -m repro run table1 --scale 0.05 --seed 3`" in out
        assert "## table1: " in out
        assert "tests/test_paper_claims.py::TestTable1::" in out
        assert "```text\n== table1: " in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "figure2", "--scale", "2"],
            ["run", "all", "--scale", "0"],
        ],
    )
    def test_bad_scale_is_a_clean_error(self, argv, capsys):
        # Regression: a ValidationError from the figure code escaped main() as a
        # traceback with exit 1.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scale" in err

    def test_store_run_is_bitwise_and_warm_run_fits_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # `run all` writes the same record without a store, cold on one
        # and warm on it; the warm run computes no cell and no eigensolve.
        from repro.obs import read_trace, summarize_trace, tracing
        from repro.obs.metrics import get_registry

        store = str(tmp_path / "ledger")
        records = {}
        for name, extra in (("none", []), ("cold", ["--store", store]),
                            ("warm", ["--store", store])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            argv = ["run", "all", "--scale", "0.05", *extra,
                    "--output", "record.txt"]
            if name != "warm":
                assert main(argv) == 0
            else:
                solves = get_registry().counter_value("eig.solve")
                with tracing(tmp_path / "warm.jsonl"):
                    assert main(argv) == 0
                assert get_registry().counter_value("eig.solve") == solves
            records[name] = (tmp_path / name / "record.txt").read_bytes()
        capsys.readouterr()
        assert records["none"] == records["cold"] == records["warm"]
        assert b"--store" not in records["none"]
        stages = summarize_trace(read_trace(tmp_path / "warm.jsonl"))["stages"]
        assert "spec.cell" not in stages
        assert "plan.solve" not in stages

    def test_run_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "render.txt"
        assert main(
            ["run", "table1", "--scale", "0.05", "--output", str(target)]
        ) == 0
        capsys.readouterr()
        assert "Base-rate" in target.read_text()

    def test_unknown_experiment(self, capsys):
        assert main(["run", "figure42"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err


def _write_spec(tmp_path, name: str, **fields) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, **fields}))
    return str(path)


#: What `experiments sweep synthetic --scale 0.2 --gammas 0,0.5,1` ran: a
#: one-seed spec at workload_harness's synthetic operating point.
_SWEEP_SPEC = dict(
    datasets=[{"name": "synthetic", "scale": 0.2}], methods=["pfr"],
    gammas=[0.0, 0.5, 1.0], seeds=[0], harness={"n_components": 2},
)
#: What `experiments repeat synthetic --scale 0.2 --methods original,pfr
#: --seeds 0,1` ran: a one-γ spec on the default harness.
_REPEAT_SPEC = dict(
    datasets=[{"name": "synthetic", "scale": 0.2}],
    methods=["original", "pfr"], gammas=[0.5], seeds=[0, 1],
)


def _without_cached(cells):
    return [{k: v for k, v in cell.items() if k != "cached"} for cell in cells]


class TestExperiments:
    @pytest.mark.parametrize("command", ["sweep", "repeat"])
    def test_folded_subcommands_are_gone(self, command, capsys):
        # A sweep is a one-seed spec and a repetition a one-γ spec, both
        # run by `experiments run`.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", command, "synthetic", "--scale", "0.2"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_spec_cells_equal_gamma_sweep(self, tmp_path, capsys):
        from repro.experiments import workload_harness

        spec = _write_spec(tmp_path, "sweep", **_SWEEP_SPEC)
        argv = ["experiments", "run", spec, "--json"]
        assert main(argv + ["--store", str(tmp_path / "a")]) == 0
        cold = json.loads(capsys.readouterr().out)
        expected = workload_harness(
            "synthetic", seed=0, scale=0.2
        ).gamma_sweep(_SWEEP_SPEC["gammas"])
        assert [cell["gamma"] for cell in cold["cells"]] == [0.0, 0.5, 1.0]
        assert [cell["summary"] for cell in cold["cells"]] == [
            result.summary() for result in expected
        ]
        # --workers and a warm store change nothing but `cached`.
        assert main(argv + ["--store", str(tmp_path / "b"),
                            "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert main(argv + ["--store", str(tmp_path / "a")]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cached"] == warm["total"] == 3
        for other in (parallel, warm):
            assert _without_cached(other["cells"]) == _without_cached(
                cold["cells"]
            )
            assert other["aggregates"] == cold["aggregates"] == {}

    def test_store_warmed_by_gamma_sweep_serves_the_spec(
        self, tmp_path, capsys
    ):
        from repro.experiments import workload_harness

        store = str(tmp_path / "ledger")
        workload_harness(
            "synthetic", seed=0, scale=0.2, store=store
        ).gamma_sweep(_SWEEP_SPEC["gammas"])
        spec = _write_spec(tmp_path, "sweep", **_SWEEP_SPEC)
        assert main(["experiments", "run", spec, "--store", store]) == 0
        assert "3 cells — 3 cached, 0 computed" in capsys.readouterr().out

    def test_repeat_spec_aggregates_equal_repeat_methods(
        self, tmp_path, capsys
    ):
        from repro.experiments import WorkloadFactory, repeat_methods

        store = str(tmp_path / "ledger")
        expected = repeat_methods(
            WorkloadFactory("synthetic", scale=0.2), ("original", "pfr"),
            seeds=(0, 1), gamma=0.5, store=store,
        )
        spec = _write_spec(tmp_path, "repeat", **_REPEAT_SPEC)
        argv = ["experiments", "run", spec, "--store", store]
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached"] == payload["total"] == 4
        for method, aggregate in expected.items():
            assert payload["aggregates"][f"synthetic/{method}/gamma=0.5"] == {
                "n_runs": aggregate.n_runs,
                "mean": aggregate.mean,
                "std": aggregate.std,
            }
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert "original" in table and "±" in table

    def test_tune_reports_operating_points(self, capsys):
        assert main(
            ["experiments", "tune", "synthetic", "--scale", "0.2",
             "--methods", "pfr", "--splits", "3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"pfr"}
        assert {"best_params", "best_score", "results"} <= set(payload["pfr"])

    def test_empty_seeds_is_a_clean_error(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, "empty", **{**_REPEAT_SPEC, "seeds": []})
        assert main([
            "experiments", "run", spec, "--store", str(tmp_path / "ledger")
        ]) == 2
        assert "at least one seed" in capsys.readouterr().err

    def test_invalid_workers_is_a_clean_error(self, capsys):
        assert main(
            ["experiments", "tune", "synthetic", "--scale", "0.2",
             "--methods", "pfr", "--workers", "lots"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        from repro._version import __version__
        assert out.strip() == f"repro {__version__}"


class TestExperimentsRunSpec:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-smoke",
            "datasets": [{"name": "synthetic", "scale": 0.3}],
            "methods": ["original", "pfr"],
            "gammas": [0.0, 0.5],
            "seeds": [0, 1],
            "harness": {"n_components": 2},
        }))
        return path

    def test_cold_then_warm(self, spec_file, tmp_path, capsys):
        store = tmp_path / "ledger"
        assert main([
            "experiments", "run", str(spec_file), "--store", str(store)
        ]) == 0
        out = capsys.readouterr().out
        assert "8 cells" in out and "8 computed" in out
        assert main([
            "experiments", "run", str(spec_file), "--store", str(store)
        ]) == 0
        out = capsys.readouterr().out
        assert "8 cached, 0 computed" in out
        assert "hit rate 100%" in out

    def test_json_report(self, spec_file, tmp_path, capsys):
        assert main([
            "experiments", "run", str(spec_file),
            "--store", str(tmp_path / "ledger"), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "cli-smoke"
        assert payload["total"] == 8
        assert payload["cached"] == 0
        assert len(payload["cells"]) == 8

    def test_missing_spec_errors(self, tmp_path, capsys):
        assert main([
            "experiments", "run", str(tmp_path / "nope.yaml"),
            "--store", str(tmp_path / "ledger"),
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_sharded_run_then_merge_matches_unsharded(
        self, spec_file, tmp_path, capsys
    ):
        # The whole distributed workflow through the CLI: two shards into
        # separate stores, `store merge` unions them, a report run over
        # the merged store finds every cell cached and its aggregates
        # equal the unsharded run's.
        assert main([
            "experiments", "run", str(spec_file),
            "--store", str(tmp_path / "full"), "--json",
        ]) == 0
        full = json.loads(capsys.readouterr().out)
        shards = []
        for i in range(2):
            assert main([
                "experiments", "run", str(spec_file),
                "--store", str(tmp_path / f"s{i}"),
                "--shard", f"{i}/2", "--json",
            ]) == 0
            shards.append(json.loads(capsys.readouterr().out))
        assert shards[1]["telemetry"]["shard"] == "1/2"
        assert shards[0]["total"] + shards[1]["total"] == full["total"]
        assert main([
            "store", "merge", str(tmp_path / "merged"),
            str(tmp_path / "s0"), str(tmp_path / "s1"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "experiments", "run", str(spec_file),
            "--store", str(tmp_path / "merged"), "--json",
        ]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["cached"] == merged["total"] == full["total"]
        assert merged["aggregates"] == full["aggregates"]
        # `cached` records this run's cold/warm state, not cell identity —
        # the merged-report run is (by design) fully warm.
        def _identity(cells):
            return [
                {k: v for k, v in cell.items() if k != "cached"}
                for cell in cells
            ]
        assert _identity(merged["cells"]) == _identity(full["cells"])
        assert main([
            "store", "verify", "--store", str(tmp_path / "merged"),
        ]) == 0

    def test_invalid_shard_errors(self, spec_file, tmp_path, capsys):
        assert main([
            "experiments", "run", str(spec_file),
            "--store", str(tmp_path / "ledger"), "--shard", "2/2",
        ]) == 2
        assert "shard index" in capsys.readouterr().err


class TestServe:
    def test_metrics_exports_the_process_registry(
        self, tmp_path, monkeypatch, capsys
    ):
        # Series emitted through get_registry() (ledger, eig, knn, merge,
        # lifecycle) must reach `repro serve`'s /metrics, not only the
        # serving layer's own.
        import re
        import urllib.request

        from repro import cli
        from repro.obs import get_registry

        scraped = {}

        def scrape():
            banner = capsys.readouterr().out
            url = re.search(r"http://[\d.]+:\d+", banner).group(0)
            get_registry().inc("ledger.hits", root="serve-cli-test")
            with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
                scraped["body"] = response.read().decode("utf-8")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "threading_event_wait", scrape)
        assert main([
            "serve", "--registry", str(tmp_path / "registry"),
            "--port", "0", "--workers", "2",
        ]) == 0
        assert 'repro_ledger_hits_total{root="serve-cli-test"} 1' in (
            scraped["body"]
        )
        assert "repro_http_max_queue" in scraped["body"]
        # The BLAS pool sizes `import repro` settled on, one gauge per pool.
        from repro._blas import pool_sizes

        for pool, n in pool_sizes().items():
            assert f'repro_blas_threads{{pool="{pool}"}} {n}\n' in scraped["body"]

    def test_nan_drift_floor_is_rejected(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        def interrupt():
            raise KeyboardInterrupt

        # Were the floor accepted, the server would start: stop it at once.
        monkeypatch.setattr(cli, "threading_event_wait", interrupt)
        assert main([
            "serve", "--registry", str(tmp_path / "registry"),
            "--port", "0", "--drift", "--drift-floor", "nan",
        ]) != 0
        assert "drift_floor must be finite" in capsys.readouterr().err

    def test_negative_cache_size_fails_before_binding(
        self, tmp_path, monkeypatch, capsys
    ):
        # Regression: the server used to start and answer every transform
        # with a 400 from the per-model cache.
        from repro import cli

        def interrupt():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "threading_event_wait", interrupt)
        assert main([
            "serve", "--registry", str(tmp_path / "registry"),
            "--cache-size", "-1", "--port", "0",
        ]) == 2
        captured = capsys.readouterr()
        assert "cache_size must be an integer >= 0" in captured.err
        assert "serving registry" not in captured.out


class TestStoreCommands:
    @pytest.fixture
    def populated(self, tmp_path):
        from repro.store import RunLedger

        store = tmp_path / "ledger"
        ledger = RunLedger(store)
        ledger.put({"kind": "method_result", "method": "pfr",
                    "harness": {"dataset": {"name": "synthetic"}}}, {"x": 1})
        return store

    def test_ls(self, populated, capsys):
        assert main(["store", "ls", "--store", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "method_result" in out and "1 entries" in out
        assert "synthetic" in out

    def test_ls_json(self, populated, capsys):
        assert main(["store", "ls", "--store", str(populated), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kind"] == "method_result"
        from repro._blas import pool_sizes

        assert payload[0]["blas"] == pool_sizes()

    def test_ls_empty(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "void")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_verify_ok(self, populated, capsys):
        assert main(["store", "verify", "--store", str(populated)]) == 0
        assert "ledger OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, populated, capsys):
        victim = next((populated / "objects").glob("??/*.json"))
        victim.write_text("{garbage")
        assert main(["store", "verify", "--store", str(populated)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_gc_dry_run(self, populated, capsys):
        assert main(["store", "gc", "--store", str(populated),
                     "--kind", "method_result", "--dry-run"]) == 0
        assert "would remove 1 entries" in capsys.readouterr().out
        assert main(["store", "ls", "--store", str(populated)]) == 0
        assert "1 entries" in capsys.readouterr().out

    def test_gc_removes(self, populated, capsys):
        assert main(["store", "gc", "--store", str(populated),
                     "--kind", "method_result"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_stats(self, populated, capsys):
        assert main(["store", "stats", "--store", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "entries:      1" in out
        assert "method_result" in out

    def test_stats_json(self, populated, capsys):
        assert main([
            "store", "stats", "--store", str(populated), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["entries"] == 1
        assert payload["counts"]["by_kind"] == {"method_result": 1}
        assert "hits" in payload["session"]

    def test_merge(self, populated, tmp_path, capsys):
        from repro.store import RunLedger

        src = tmp_path / "other"
        RunLedger(src).put({"kind": "method_result", "method": "kpfr"},
                           {"x": 2})
        dest = tmp_path / "union"
        assert main([
            "store", "merge", str(dest), str(populated), str(src),
        ]) == 0
        out = capsys.readouterr().out
        assert "copied 2 entries" in out
        assert len(RunLedger(dest).ls()) == 2
        # Idempotent re-merge through the CLI.
        assert main([
            "store", "merge", str(dest), str(populated), str(src), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["copied"] == 0
        assert payload["deduped"] == 2
        assert payload["dedupe_rate"] == 1.0

    def test_merge_conflict_exits_nonzero(self, populated, tmp_path, capsys):
        import json as _json
        from repro.store import RunLedger

        src = tmp_path / "conflicting"
        entry = RunLedger(src).put(
            {"kind": "method_result", "method": "pfr",
             "harness": {"dataset": {"name": "synthetic"}}}, {"x": 1},
        )
        path = next((src / "objects").glob("??/*.json"))
        data = _json.loads(path.read_text())
        data["payload"] = {"x": 999}
        path.write_text(_json.dumps(data))
        dest = tmp_path / "union"
        assert main([
            "store", "merge", str(dest), str(populated), str(src),
        ]) == 1
        out = capsys.readouterr().out
        assert f"CONFLICT {entry.digest[:16]}" in out


class TestRegisterFromLedger:
    def test_round_trip(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import ExperimentHarness, make_workload

        store = tmp_path / "ledger"
        harness = ExperimentHarness(
            make_workload("synthetic", seed=0, scale=0.3),
            seed=0, n_components=2, store=store,
        )
        entry = harness.export_model("pfr", gamma=0.5)
        monkeypatch.setenv("REPRO_REGISTRY", str(tmp_path / "registry"))
        assert main([
            "models", "register", "synthetic-pfr",
            "--from-ledger", entry.digest, "--store", str(store),
        ]) == 0
        assert "registered synthetic-pfr@1" in capsys.readouterr().out
        assert main(["models", "show", "synthetic-pfr"]) == 0
        out = capsys.readouterr().out
        assert "PFR" in out and "stage_digests" in out

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["models", "register", "x"]) == 2
        assert "exactly one source" in capsys.readouterr().err
        assert main([
            "models", "register", "x", "artifact.npz",
            "--from-ledger", "f" * 64,
        ]) == 2
        assert "exactly one source" in capsys.readouterr().err


class TestLifecycleCommands:
    @pytest.fixture
    def bundle(self, tmp_path):
        import numpy as np

        from repro.graphs import knn_graph

        rng = np.random.default_rng(17)
        X = rng.normal(size=(250, 6))
        path = tmp_path / "bundle.npz"
        np.savez(
            path,
            X=X,
            w_fair=knn_graph(X, n_neighbors=6).toarray(),
            X_new=rng.normal(loc=4.0, size=(60, 6)),
        )
        return path, tmp_path

    def _flags(self, path, root):
        return [
            "--data", str(path),
            "--name", "pfr-cli",
            "--registry", str(root / "registry"),
            "--store", str(root / "ledger"),
            "--components", "3",
            "--landmarks", "64",
            "--min-rows", "16",
        ]

    def test_refresh_promotes_v2_with_lineage(self, bundle, capsys):
        path, root = bundle
        assert main(
            ["lifecycle", "refresh", *self._flags(path, root), "--json"]
        ) == 0
        event = json.loads(capsys.readouterr().out)
        assert event["refresh"] is not None
        assert event["refresh"]["version"] == 2
        assert not event["refresh"]["rolled_back"]
        assert main(
            [
                "lifecycle", "status", "pfr-cli",
                "--registry", str(root / "registry"),
                "--store", str(root / "ledger"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "v2" in out and "refreshed" in out

    def test_refresh_trace_splits_extend_and_refresh(self, bundle, capsys):
        from repro.obs import read_trace, summarize_trace

        path, root = bundle
        trace = root / "lifecycle.jsonl"
        assert main(
            [
                "lifecycle", "refresh", *self._flags(path, root), "--json",
                "--trace", str(trace),
            ]
        ) == 0
        event = json.loads(capsys.readouterr().out)
        assert event["refresh"]["version"] == 2
        stages = summarize_trace(read_trace(trace))["stages"]
        for name in ("plan.extend", "plan.refresh", "lifecycle.refresh"):
            assert stages[name]["count"] >= 1, name
        assert main(["obs", "summary", str(trace)]) == 0
        assert "plan.refresh" in capsys.readouterr().out

    def test_refresh_without_x_new_errors(self, bundle, capsys, tmp_path):
        import numpy as np

        path, root = bundle
        with np.load(path) as data:
            stripped = {k: data[k] for k in data.files if k != "X_new"}
        bad = tmp_path / "no-new.npz"
        np.savez(bad, **stripped)
        assert main(["lifecycle", "refresh", *self._flags(bad, root)]) != 0
        assert "X_new" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [
        ("--min-interval", "min_interval"),
        ("--holdout-tolerance", "holdout_tolerance"),
    ])
    def test_nan_option_is_rejected(self, bundle, capsys, monkeypatch,
                                    flag, name):
        # Rejected before the bundle's plan is fitted, not after.
        from repro.core import LandmarkPlan

        fits = []
        fit = LandmarkPlan.fit

        def spy(plan, *args, **kwargs):
            fits.append(plan)
            return fit(plan, *args, **kwargs)

        monkeypatch.setattr(LandmarkPlan, "fit", spy)
        path, root = bundle
        assert main(
            ["lifecycle", "refresh", *self._flags(path, root), flag, "nan"]
        ) != 0
        assert f"{name} must be finite" in capsys.readouterr().err
        assert fits == []

    def test_watch_quarantines_a_rejected_batch(self, bundle, capsys):
        # Regression: one non-finite batch stopped the watch for good (exit
        # 2, and the batch stayed put, so every restart died on it too).
        import numpy as np

        path, root = bundle
        incoming = root / "incoming"
        incoming.mkdir()
        rng = np.random.default_rng(5)
        bad = rng.normal(size=(20, 6))
        bad[3, 2] = np.nan
        np.save(incoming / "a_bad.npy", bad)
        np.save(incoming / "b_good.npy", rng.normal(size=(20, 6)))
        assert main(
            ["lifecycle", "watch", *self._flags(path, root),
             "--incoming", str(incoming), "--interval", "0.01",
             "--max-batches", "1"]
        ) == 0
        assert (incoming / "a_bad.npy.rejected").exists()
        assert (incoming / "b_good.npy.done").exists()
        assert capsys.readouterr().err.startswith("error: a_bad.npy: ")

    def test_watch_quarantines_an_unreadable_batch(self, bundle, capsys):
        # Regression: a batch file np.load cannot read stopped the watch
        # for good, as a non-finite batch once did.
        import numpy as np

        path, root = bundle
        incoming = root / "incoming"
        incoming.mkdir()
        (incoming / "a_trunc.npy").write_bytes(b"\x93NUMPY garbage")
        np.save(incoming / "b_good.npy",
                np.random.default_rng(5).normal(size=(20, 6)))
        assert main(
            ["lifecycle", "watch", *self._flags(path, root),
             "--incoming", str(incoming), "--interval", "0.01",
             "--max-batches", "1"]
        ) == 0
        assert (incoming / "a_trunc.npy.rejected").exists()
        assert (incoming / "b_good.npy.done").exists()
        assert capsys.readouterr().err.startswith(
            "error: a_trunc.npy: unreadable batch file: "
        )

    def test_missing_bundle_errors(self, tmp_path, capsys):
        assert main(
            ["lifecycle", "refresh", *self._flags(tmp_path / "ghost.npz", tmp_path)]
        ) != 0
        assert "not found" in capsys.readouterr().err
