"""Tests for repro.experiments.parallel — executor + serial/process parity.

The contract under test: parallelism may change wall-clock only, never
numbers. Every parity test runs the same workload through the serial
reference path (``workers=1`` / ``workers=None``) and through a process
fan-out (``workers=4``) and requires **bitwise-identical** results — equal
floats, not allclose.
"""

import numpy as np
import pytest

from repro.datasets import simulate_admissions
from repro.exceptions import ValidationError
from repro.experiments import (
    Executor,
    ExperimentHarness,
    WorkloadFactory,
    available_workers,
    get_executor,
    make_workload,
    parallel,
    repeat_gamma_sweep,
    repeat_methods,
    spawn_seeds,
    tune_methods,
)


# Module-level task functions: the process pool pickles them by
# reference, so they cannot be lambdas or closures.

def _square_plus_state(state, task):
    return state + task * task


def _echo(state, task):
    return task


def _boom(state, task):
    raise RuntimeError(f"task {task} exploded")


PROCESS_4 = Executor(workers=4)


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(0, 4) == spawn_seeds(0, 4)
        assert spawn_seeds(7, 4) == spawn_seeds(7, 4)

    def test_distinct_within_and_across_roots(self):
        seeds = spawn_seeds(0, 16)
        assert len(set(seeds)) == 16
        assert spawn_seeds(0, 4) != spawn_seeds(1, 4)

    def test_prefix_stable(self):
        # Growing n extends the seed list; it must not reshuffle the prefix.
        assert spawn_seeds(3, 8)[:4] == spawn_seeds(3, 4)

    def test_zero_and_negative(self):
        assert spawn_seeds(0, 0) == ()
        with pytest.raises(ValidationError, match="spawn"):
            spawn_seeds(0, -1)


class TestExecutor:
    def test_available_workers_positive(self):
        assert available_workers() >= 1

    def test_get_executor_interpretation(self):
        assert get_executor(None).workers == 1
        executor = Executor(workers=2)
        assert get_executor(executor) is executor
        assert get_executor(4).workers == 4
        assert get_executor("auto").workers == "auto"

    def test_invalid_workers(self):
        with pytest.raises(ValidationError, match="workers"):
            Executor(workers=0)
        with pytest.raises(ValidationError, match="workers"):
            Executor(workers="many")
        with pytest.raises(ValidationError, match="workers"):
            get_executor("many")

    def test_resolution(self):
        executor = Executor(workers=4)
        assert executor.resolve_workers(2) == 2  # capped by task count
        assert executor.resolve_workers(100) == 4
        assert executor.resolve_workers(1) == 1  # degenerate fan-out
        assert Executor(workers=1).resolve_workers(10) == 1
        assert Executor().resolve_workers() == available_workers()

    def test_serial_map_order_and_state(self):
        out = Executor(workers=1).map(
            _square_plus_state, [1, 2, 3], state=10
        )
        assert out == [11, 14, 19]

    def test_process_map_order_and_state(self):
        tasks = list(range(12))
        out = PROCESS_4.map(_square_plus_state, tasks, state=100)
        assert out == [100 + t * t for t in tasks]

    def test_empty_tasks(self):
        assert PROCESS_4.map(_echo, []) == []

    def test_single_task_stays_serial(self, monkeypatch):
        # A fan-out that resolves to one worker never spins up a pool.
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker fan-out started a pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        assert Executor(workers=4).map(_echo, [5]) == [5]
        assert Executor(workers=1).map(_echo, [1, 2, 3]) == [1, 2, 3]
        assert get_executor(None).map(_echo, [1, 2]) == [1, 2]

    def test_process_map_propagates_errors(self):
        with pytest.raises(RuntimeError, match="exploded"):
            PROCESS_4.map(_boom, [1, 2])


def _summaries(results) -> list:
    return [result.summary() for result in results]


@pytest.fixture(scope="module")
def parity_harness():
    """Small prepared harness shared by the parity tests (read-only use)."""
    return ExperimentHarness(
        simulate_admissions(60, seed=3), seed=0, n_components=2
    ).prepare()


class TestParity:
    """workers=1 and workers=4 must produce bitwise-identical science."""

    def test_run_methods_pfr_ifair(self, parity_harness):
        methods = ("pfr", "ifair")
        serial = parity_harness.run_methods(methods, gamma=0.9, workers=1)
        fanned = parity_harness.run_methods(methods, gamma=0.9, workers=PROCESS_4)
        for method in methods:
            assert serial[method].summary() == fanned[method].summary()
            assert serial[method].auc == fanned[method].auc
            assert serial[method].auc_by_group == fanned[method].auc_by_group
            assert serial[method].rates == fanned[method].rates

    def test_gamma_sweep_pfr(self, parity_harness):
        gammas = [0.0, 0.3, 0.6, 0.9]
        serial = parity_harness.gamma_sweep(gammas, method="pfr", workers=1)
        fanned = parity_harness.gamma_sweep(gammas, method="pfr", workers=PROCESS_4)
        assert _summaries(serial) == _summaries(fanned)

    def test_gamma_sweep_kernel_pfr_landmark_path(self):
        # The Nyström scaling path: landmark selection is seeded, so it too
        # must be a pure function of the harness seed, not of which worker
        # runs the point.
        harness = ExperimentHarness(
            simulate_admissions(80, seed=5),
            seed=1,
            n_components=2,
            landmarks=24,
            landmark_strategy="uniform",
        )
        gammas = [0.2, 0.8]
        serial = harness.gamma_sweep(gammas, method="kpfr", workers=None)
        fanned = harness.gamma_sweep(gammas, method="kpfr", workers=PROCESS_4)
        assert _summaries(serial) == _summaries(fanned)

    def test_tuned_operating_points_pfr(self, parity_harness):
        grid = {"gamma": [0.1, 0.9], "C": [0.1, 1.0]}
        serial = parity_harness.tune("pfr", grid, n_splits=3, workers=1)
        fanned = parity_harness.tune("pfr", grid, n_splits=3, workers=PROCESS_4)
        # Full equality: best point, best score, and every grid result.
        assert serial == fanned

    def test_tune_methods_ifair(self, parity_harness):
        grids = {"ifair": {"n_prototypes": [3, 5], "C": [1.0]}}
        serial = tune_methods(
            parity_harness, methods=("ifair",), grids=grids, n_splits=3,
            workers=None,
        )
        fanned = tune_methods(
            parity_harness, methods=("ifair",), grids=grids, n_splits=3,
            workers=PROCESS_4,
        )
        assert serial == fanned

    def test_repeat_methods_aggregates(self):
        factory = WorkloadFactory("synthetic", scale=0.2)
        kwargs = dict(
            seeds=(0, 1), gamma=0.9, harness_kwargs={"n_components": 2}
        )
        serial = repeat_methods(factory, ("original", "pfr"), **kwargs)
        fanned = repeat_methods(
            factory, ("original", "pfr"), workers=PROCESS_4, **kwargs
        )
        # AggregateResult is a frozen dataclass: == compares every mean/std
        # float exactly.
        assert serial == fanned

    def test_repeat_gamma_sweep_aggregates(self):
        factory = WorkloadFactory("synthetic", scale=0.2)
        kwargs = dict(seeds=(0, 1), harness_kwargs={"n_components": 2})
        serial = repeat_gamma_sweep(factory, [0.1, 0.9], **kwargs)
        fanned = repeat_gamma_sweep(
            factory, [0.1, 0.9], workers=PROCESS_4, **kwargs
        )
        assert serial == fanned

    def test_pickled_harness_drops_plan_caches(self, parity_harness):
        import pickle

        parity_harness.run_method("pfr", gamma=0.5)
        assert parity_harness._plan_cache
        clone = pickle.loads(pickle.dumps(parity_harness))
        assert clone._plan_cache == {}
        # The clone still reproduces the parent's numbers from scratch.
        assert (
            clone.run_method("pfr", gamma=0.5).summary()
            == parity_harness.run_method("pfr", gamma=0.5).summary()
        )


class TestRepetitionSeeds:
    def test_empty_seeds_rejected_with_clear_message(self):
        factory = WorkloadFactory("synthetic", scale=0.2)
        with pytest.raises(ValidationError, match="two seeds"):
            repeat_methods(factory, ("original",), seeds=())
        with pytest.raises(ValidationError, match="two seeds"):
            repeat_methods(factory, ("original",), seeds=[])
        with pytest.raises(ValidationError, match="two seeds"):
            repeat_gamma_sweep(factory, [0.5], seeds=())

    def test_single_seed_rejected(self):
        factory = WorkloadFactory("synthetic", scale=0.2)
        with pytest.raises(ValidationError, match="two seeds"):
            repeat_methods(factory, ("original",), seeds=(0,))
        with pytest.raises(ValidationError, match="two seeds"):
            repeat_methods(factory, ("original",), seeds=1)

    def test_int_seeds_derive_via_seed_sequence(self):
        factory = WorkloadFactory("synthetic", scale=0.2)
        aggregate = repeat_methods(
            factory, ("original",), seeds=2,
            harness_kwargs={"n_components": 2},
        )["original"]
        assert aggregate.n_runs == 2
        explicit = repeat_methods(
            factory, ("original",), seeds=spawn_seeds(0, 2),
            harness_kwargs={"n_components": 2},
        )["original"]
        assert aggregate == explicit

    def test_generator_seeds_materialized(self):
        factory = WorkloadFactory("synthetic", scale=0.2)
        aggregate = repeat_methods(
            factory, ("original",), seeds=(s for s in (0, 1)),
            harness_kwargs={"n_components": 2},
        )["original"]
        assert aggregate.n_runs == 2


class TestSampleStd:
    def test_repetition_uses_sample_std(self):
        factory = WorkloadFactory("synthetic", scale=0.2)
        seeds = (0, 1, 2)
        aggregate = repeat_methods(
            factory, ("original",), seeds=seeds,
            harness_kwargs={"n_components": 2},
        )["original"]
        aucs = [
            ExperimentHarness(factory(seed), seed=seed, n_components=2)
            .run_method("original")
            .summary()["auc"]
            for seed in seeds
        ]
        assert aggregate.mean["auc"] == float(np.mean(aucs))
        assert aggregate.std["auc"] == float(np.std(aucs, ddof=1))
        assert aggregate.std["auc"] != float(np.std(aucs))


class TestWorkloads:
    def test_make_workload_names_and_scale(self):
        data = make_workload("synthetic", seed=0, scale=0.2)
        assert data.name == "synthetic"
        # simulate_admissions draws per group: 0.2 × 300 = 60 each.
        assert data.n_samples == 120
        with pytest.raises(ValidationError, match="unknown dataset"):
            make_workload("adult")
        with pytest.raises(ValidationError, match="scale"):
            make_workload("synthetic", scale=0.0)

    def test_factory_is_picklable_and_deterministic(self):
        import pickle

        factory = WorkloadFactory("crime", scale=0.1)
        clone = pickle.loads(pickle.dumps(factory))
        a, b = factory(7), clone(7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        with pytest.raises(ValidationError, match="unknown dataset"):
            WorkloadFactory("adult")

    def test_factory_matches_make_workload(self):
        a = WorkloadFactory("synthetic", scale=0.5)(3)
        b = make_workload("synthetic", seed=3, scale=0.5)
        np.testing.assert_array_equal(a.X, b.X)
