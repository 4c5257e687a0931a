"""Command-line interface: reproduce experiments and serve fitted models.

Usage::

    python -m repro --version
    python -m repro list
    python -m repro run figure2 [--scale 0.5] [--seed 0] [--output out.txt]
    python -m repro run all [--store DIR] --output EXPERIMENTS.md

    python -m repro experiments run spec.yaml [--store DIR] [--workers 4]
                                              [--shard I/K]
    python -m repro experiments tune DATASET [--methods original,pfr] [--store DIR]

    python -m repro store ls [--store DIR] [--kind method_result]
    python -m repro store gc [--store DIR] [--kind K] [--older-than-days D]
    python -m repro store verify [--store DIR]
    python -m repro store stats [--store DIR]
    python -m repro store merge DEST SRC [SRC...] [--dry-run]

    python -m repro models register NAME artifact.npz [--registry DIR]
    python -m repro models register NAME --from-ledger DIGEST [--store DIR]
    python -m repro models list [--registry DIR]
    python -m repro models show NAME[@VERSION] [--registry DIR]
    python -m repro models promote NAME VERSION [--registry DIR]
    python -m repro transform NAME[@VERSION] --input rows.csv [--output z.csv]
    python -m repro serve [--registry DIR] [--port 8321] [--workers 8]
                          [--drift] [--drift-floor F] [--drift-sample N]

    python -m repro lifecycle status NAME [--registry DIR] [--store DIR]
    python -m repro lifecycle status --url http://127.0.0.1:8321
    python -m repro lifecycle refresh --data bundle.npz --name NAME
                                      [--registry DIR] [--store DIR] [--force]
    python -m repro lifecycle watch --data bundle.npz --name NAME
                                    --incoming DIR [--interval S] [--max-batches N]

    python -m repro obs summary trace.jsonl [--json]
    python -m repro obs tail trace.jsonl [-n 20]

``run`` regenerates the experiment and prints its section of the
paper-vs-measured record: the paper's claims with the tier-1 tests that
pin them, the known deviations, and the ASCII rendering of the measured
values; ``--output`` also writes it to a file, and ``run all --output
EXPERIMENTS.md`` regenerates the committed record. ``--store`` reads the
fits already in a run ledger back instead of refitting them (the record's
bytes are the same either way). ``list`` shows every experiment with its
claims. The
``experiments`` family runs declarative scenario matrices
(``experiments run spec.yaml``; a γ-sweep is a one-seed spec, a
cross-seed repetition a one-γ spec) and the grid-search tuning protocol
(``experiments tune``), with ``--workers`` fanning the independent fits
out across processes (results are bitwise identical to serial) and
``--store`` routing every cell through the content-addressed run ledger
(:mod:`repro.store`) — interrupted runs resume and extended grids pay
only their new cells. The ``store`` family inspects and
maintains that ledger. The ``models`` family manages the versioned model
registry (:mod:`repro.serving`) and ``transform`` pushes a CSV of feature
rows through a registered model.

The registry directory defaults to the ``REPRO_REGISTRY`` environment
variable (falling back to ``~/.repro/registry``); the ledger to
``REPRO_STORE`` (falling back to ``~/.repro/store``).

The ``lifecycle`` family closes the production loop
(:mod:`repro.lifecycle`): ``refresh`` scores a batch of newly arrived
rows against a fitted landmark model's fidelity baseline and — when the
drift policy fires (or ``--force``) — warm-start refits, records the
child in the run ledger with a ``parent`` link, registers it and
promotes it (with holdout rollback); ``watch`` does the same
continuously over ``.npy`` batch files dropped into a directory;
``status`` shows version lineage (offline) or a running server's
``/drift`` snapshots (``--url``). The ``--data`` bundle is an ``.npz``
with ``X`` (training rows), ``w_fair`` (dense fairness adjacency),
optional ``X_new`` (the arriving batch for ``refresh``) and optional
``X_holdout`` (rollback guard).

Every ``experiments`` subcommand, ``transform`` and ``lifecycle
refresh|watch`` also accept ``--trace PATH`` (record a JSONL trace of
the run via :mod:`repro.obs`, readable with ``repro obs summary``) and
``--metrics`` (print the final metrics-registry snapshot to stderr).
Both are off by default and cost nothing when off.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .exceptions import ReproError, ValidationError

__all__ = ["main", "build_parser", "default_registry_root", "default_store_root"]


def default_registry_root() -> Path:
    """Registry location: ``$REPRO_REGISTRY`` or ``~/.repro/registry``."""
    root = os.environ.get("REPRO_REGISTRY")
    if root:
        return Path(root)
    return Path.home() / ".repro" / "registry"


def default_store_root() -> Path:
    """Run-ledger location: ``$REPRO_STORE`` or ``~/.repro/store``."""
    from .store import default_store_root as _default

    return _default()


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of Lahoti et al., VLDB 2019",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the reproducible experiments")

    run = subparsers.add_parser("run", help="regenerate one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id (table1, figure1..figure10) or 'all'",
    )
    run.add_argument("--scale", type=float, default=1.0,
                     help="dataset-size fraction in (0, 1] (default 1.0)")
    run.add_argument("--seed", type=int, default=0, help="generator seed")
    run.add_argument("--output", default=None,
                     help="also write the rendering to this file")
    run.add_argument(
        "--store", default=None,
        help="run-ledger directory: fits already in it are read back, new "
             "ones are added (default: none, fit everything in memory)",
    )

    models = subparsers.add_parser(
        "models", help="manage the versioned model registry"
    )
    models_sub = models.add_subparsers(dest="models_command", required=True)

    register = models_sub.add_parser(
        "register", help="register a saved model artifact as a new version"
    )
    register.add_argument("name", help="model name (letters, digits, . _ -)")
    register.add_argument(
        "artifact", nargs="?", default=None,
        help="path to a .npz written by save_model (omit with --from-ledger)",
    )
    register.add_argument("--registry", default=None, help="registry directory")
    register.add_argument(
        "--no-promote", action="store_true",
        help="register without moving the 'latest' pointer",
    )
    register.add_argument(
        "--from-ledger", default=None, metavar="DIGEST",
        help="register the model blob of a run-ledger entry (see "
             "ExperimentHarness.export_model) instead of an artifact file",
    )
    register.add_argument(
        "--store", default=None,
        help="run-ledger directory for --from-ledger "
             "(default: $REPRO_STORE or ~/.repro/store)",
    )

    list_models = models_sub.add_parser(
        "list", help="list registered models (latest version each)"
    )
    list_models.add_argument("--registry", default=None)

    show = models_sub.add_parser(
        "show", help="show the manifest of NAME or NAME@VERSION"
    )
    show.add_argument("spec", help="model name, optionally with @version")
    show.add_argument("--registry", default=None)

    promote = models_sub.add_parser(
        "promote", help="point NAME@latest at an existing version"
    )
    promote.add_argument("name")
    promote.add_argument("version", type=int)
    promote.add_argument("--registry", default=None)

    serve = subparsers.add_parser(
        "serve", help="serve registered models over HTTP (asyncio, stdlib)"
    )
    serve.add_argument("--registry", default=None, help="registry directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port (0 picks an ephemeral one; default 8321)")
    serve.add_argument("--workers", type=int, default=8,
                       help="request worker threads (default 8)")
    serve.add_argument("--cache-size", type=int, default=100_000,
                       help="per-model LRU result-cache rows (default 100000)")
    serve.add_argument("--max-queue", type=int, default=512,
                       help="admitted in-flight requests before 429 (default 512)")
    serve.add_argument("--max-body-mb", type=float, default=8.0,
                       help="request-body ceiling in MiB before 413 (default 8)")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-request seconds before 503 (default 30)")
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append a JSONL trace of request spans to PATH",
    )
    serve.add_argument(
        "--drift", action="store_true",
        help="score a sample of every served batch against the model's "
             "landmark extension and expose windowed drift statistics at "
             "GET /drift (landmark models only; off by default)",
    )
    serve.add_argument(
        "--drift-floor", type=float, default=0.5,
        help="per-row fidelity below this counts as drifted (default 0.5)",
    )
    serve.add_argument(
        "--drift-sample", type=int, default=32,
        help="max rows scored per request (default 32)",
    )

    def _obs_flags(sub):
        sub.add_argument(
            "--trace", default=None, metavar="PATH",
            help="append a JSONL trace of this run to PATH (inspect with "
                 "`repro obs summary PATH`); off by default and free when off",
        )
        sub.add_argument(
            "--metrics", action="store_true",
            help="print the final metrics snapshot to stderr",
        )

    lifecycle = subparsers.add_parser(
        "lifecycle",
        help="drift detection and incremental landmark refresh "
             "(plan -> ledger -> registry -> serving)",
    )
    lifecycle_sub = lifecycle.add_subparsers(
        dest="lifecycle_command", required=True
    )

    def _lifecycle_model_flags(sub):
        sub.add_argument("--data", required=True, metavar="BUNDLE.npz",
                         help=".npz with X, w_fair [, X_new, X_holdout]")
        sub.add_argument("--name", required=True, help="registry model name")
        sub.add_argument("--registry", default=None, help="registry directory")
        sub.add_argument(
            "--store", default=None,
            help="run-ledger directory for refresh lineage "
                 "(default: $REPRO_STORE or ~/.repro/store)",
        )
        sub.add_argument("--landmarks", type=int, default=256,
                         help="landmark count m for the initial fit (default 256)")
        sub.add_argument("--gamma", type=float, default=0.5,
                         help="fairness weight γ (default 0.5)")
        sub.add_argument("--components", type=int, default=8,
                         help="embedding dimension d (default 8)")
        sub.add_argument("--stale-fraction", type=float, default=0.5,
                         help="drifted fraction of the window that triggers "
                              "a refresh (default 0.5)")
        sub.add_argument("--min-rows", type=int, default=32,
                         help="scores required before the policy may fire "
                              "(default 32)")
        sub.add_argument("--min-interval", type=float, default=0.0,
                         help="seconds between refreshes (default 0)")
        sub.add_argument("--holdout-tolerance", type=float, default=0.05,
                         help="allowed holdout-fidelity drop before a "
                              "refreshed version is rolled back; only "
                              "active when the bundle has X_holdout "
                              "(default 0.05)")
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON events")

    lc_status = lifecycle_sub.add_parser(
        "status", help="version lineage (offline) or live /drift (--url)"
    )
    lc_status.add_argument("name", nargs="?", default=None,
                           help="model name (offline mode)")
    lc_status.add_argument("--registry", default=None)
    lc_status.add_argument("--store", default=None,
                           help="also show run-ledger refresh lineage")
    lc_status.add_argument("--url", default=None,
                           help="query GET /drift of a running repro serve")
    lc_status.add_argument("--json", action="store_true")

    lc_refresh = lifecycle_sub.add_parser(
        "refresh",
        help="score X_new against the fitted baseline; refresh + promote "
             "when stale (or --force)",
    )
    _lifecycle_model_flags(lc_refresh)
    _obs_flags(lc_refresh)
    lc_refresh.add_argument("--force", action="store_true",
                            help="refresh even if the drift policy says fresh")

    lc_watch = lifecycle_sub.add_parser(
        "watch",
        help="ingest .npy batch files from a directory, refreshing "
             "whenever the policy fires",
    )
    _lifecycle_model_flags(lc_watch)
    _obs_flags(lc_watch)
    lc_watch.add_argument("--incoming", required=True,
                          help="directory to poll for *.npy batch files "
                               "(consumed files are renamed to *.npy.done)")
    lc_watch.add_argument("--interval", type=float, default=1.0,
                          help="poll interval in seconds (default 1)")
    lc_watch.add_argument("--max-batches", type=int, default=None,
                          help="exit after ingesting this many batches "
                               "(default: run until Ctrl-C)")

    experiments = subparsers.add_parser(
        "experiments",
        help="scenario matrices (sweeps, cross-seed repetition) and tuning "
             "(parallelizable)",
    )
    exp_sub = experiments.add_subparsers(dest="experiments_command", required=True)

    run_spec_cmd = exp_sub.add_parser(
        "run", help="execute a declarative RunSpec (YAML/JSON scenario matrix)"
    )
    run_spec_cmd.add_argument("spec", help="path to a spec file (see examples/run_spec.yaml)")
    run_spec_cmd.add_argument(
        "--store", default=None,
        help="run-ledger directory (default: $REPRO_STORE or ~/.repro/store)",
    )
    run_spec_cmd.add_argument(
        "--workers", default=None,
        help="process fan-out for the missing cells (count or 'auto')",
    )
    run_spec_cmd.add_argument(
        "--shard", default=None, metavar="I/K",
        help="run only shard I of K (cells partitioned by a stable hash "
             "of each task digest, so K machines with separate stores "
             "cover the matrix exactly once; union the stores afterwards "
             "with `repro store merge`)",
    )
    run_spec_cmd.add_argument("--json", action="store_true",
                              help="emit the machine-readable run report")
    _obs_flags(run_spec_cmd)

    tune = exp_sub.add_parser(
        "tune", help="5-fold grid search (the paper's tuning protocol)"
    )
    tune.add_argument("dataset", choices=["synthetic", "crime", "compas"])
    tune.add_argument("--scale", type=float, default=1.0,
                      help="dataset-size fraction in (0, 1] (default 1.0)")
    tune.add_argument("--seed", type=int, default=0, help="generator seed")
    tune.add_argument(
        "--workers", default=None,
        help="process fan-out: a count or 'auto' (default: serial); "
             "results are bitwise identical to a serial run",
    )
    tune.add_argument(
        "--store", default=None,
        help="run-ledger directory: scored grid points are skipped and new "
             "ones persisted, so interrupted searches resume "
             "(default: no persistence)",
    )
    tune.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON instead of a table")
    tune.add_argument("--methods", default="original,pfr",
                      help="comma-separated methods to tune")
    tune.add_argument("--splits", type=int, default=5,
                      help="cross-validation folds (default 5)")
    _obs_flags(tune)

    store = subparsers.add_parser(
        "store", help="inspect and maintain the content-addressed run ledger"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_common(sub):
        sub.add_argument(
            "--store", default=None,
            help="ledger directory (default: $REPRO_STORE or ~/.repro/store)",
        )
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")

    store_ls = store_sub.add_parser("ls", help="list ledger entries")
    _store_common(store_ls)
    store_ls.add_argument("--kind", default=None,
                          help="filter by entry kind (method_result, "
                               "tuned_point, model)")

    store_gc = store_sub.add_parser(
        "gc", help="sweep stray temp files, orphaned blobs, filtered entries"
    )
    _store_common(store_gc)
    store_gc.add_argument("--kind", default=None,
                          help="also remove entries of this kind")
    store_gc.add_argument("--older-than-days", type=float, default=None,
                          help="also remove entries older than this many days")
    store_gc.add_argument("--dry-run", action="store_true",
                          help="report without deleting")

    store_verify = store_sub.add_parser(
        "verify", help="integrity-check every ledger entry"
    )
    _store_common(store_verify)

    store_stats = store_sub.add_parser(
        "stats",
        help="entry/model inventory per kind plus this process's "
             "hit/miss counters",
    )
    _store_common(store_stats)

    store_merge = store_sub.add_parser(
        "merge",
        help="union source ledgers into DEST (idempotent by digest; "
             "the scale-out counterpart of `experiments run --shard`)",
    )
    store_merge.add_argument("dest", help="destination ledger directory")
    store_merge.add_argument("sources", nargs="+", metavar="SRC",
                             help="source ledger directories to union in")
    store_merge.add_argument("--dry-run", action="store_true",
                             help="report without copying")
    store_merge.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")

    transform = subparsers.add_parser(
        "transform", help="transform a CSV of feature rows through a model"
    )
    transform.add_argument("spec", help="model name, optionally with @version")
    transform.add_argument("--input", required=True,
                           help="CSV file of feature rows (no header)")
    transform.add_argument("--output", default=None,
                           help="write the representation CSV here "
                                "(default: stdout)")
    transform.add_argument("--registry", default=None)
    _obs_flags(transform)

    obs = subparsers.add_parser(
        "obs", help="inspect JSONL traces recorded with --trace"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_summary = obs_sub.add_parser(
        "summary",
        help="per-stage wall-time breakdown, cache hit rates and cell "
             "counts of one trace",
    )
    obs_summary.add_argument("trace", help="JSONL trace file")
    obs_summary.add_argument("--json", action="store_true",
                             help="emit the machine-readable summary")

    obs_tail = obs_sub.add_parser(
        "tail", help="print the last N records of a trace"
    )
    obs_tail.add_argument("trace", help="JSONL trace file")
    obs_tail.add_argument("-n", type=int, default=20,
                          help="number of records (default 20)")
    return parser


def _cmd_list(args) -> int:
    from .experiments import EXPERIMENTS

    for spec in EXPERIMENTS.values():
        print(f"{spec.experiment_id:10s} [{spec.dataset:9s}] {spec.title}")
        for claim in spec.claims:
            marker = " [deviation]" if claim.deviation else ""
            print(f"             - {claim.text}{marker}")
    return 0


def _cmd_run(args) -> int:
    from .experiments import EXPERIMENTS, get_experiment
    from .experiments.config import render_record

    targets = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    experiments = [get_experiment(target) for target in targets]
    results = [
        spec.driver(scale=args.scale, seed=args.seed, store=args.store)
        for spec in experiments
    ]
    # No --store: the record's bytes do not depend on where the ledger is.
    command = (
        f"python -m repro run {args.experiment} --scale {args.scale} "
        f"--seed {args.seed}"
    )
    if args.output:
        command += f" --output {args.output}"
    text = render_record(experiments, results, command=command)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    return 0


def _registry(args):
    from .serving import ModelRegistry

    root = Path(args.registry) if args.registry else default_registry_root()
    return ModelRegistry(root)


def _ledger(args):
    from .store import RunLedger

    root = Path(args.store) if args.store else default_store_root()
    return RunLedger(root)


def _cmd_models(args) -> int:
    from .io import load_model

    registry = _registry(args)
    if args.models_command == "register":
        if (args.artifact is None) == (args.from_ledger is None):
            print(
                "error: register needs exactly one source — an artifact "
                "path or --from-ledger DIGEST",
                file=sys.stderr,
            )
            return 2
        if args.from_ledger is not None:
            record = registry.register_from_ledger(
                _ledger(args), args.from_ledger, args.name,
                promote=not args.no_promote,
            )
            print(
                f"registered {record.spec} ({record.model_type}, "
                f"{record.n_features_in} features) from ledger "
                f"{args.from_ledger[:12]}…"
                + ("" if record.is_latest else " [not promoted]")
            )
            return 0
        model = load_model(args.artifact)
        record = registry.register(
            args.name, model, promote=not args.no_promote
        )
        print(
            f"registered {record.spec} ({record.model_type}, "
            f"{record.n_features_in} features)"
            + ("" if record.is_latest else " [not promoted]")
        )
        return 0

    if args.models_command == "list":
        records = registry.list_models()
        if not records:
            print("no models registered")
            return 0
        print(f"{'NAME':24s} {'LATEST':>6s} {'TYPE':20s} {'FEATURES':>8s} {'LIB':8s}")
        for record in records:
            features = "-" if record.n_features_in is None else str(record.n_features_in)
            # An unpromoted-only name shows its highest version in parens.
            version = (
                str(record.version) if record.is_latest else f"({record.version})"
            )
            print(
                f"{record.name:24s} {version:>6s} "
                f"{record.model_type:20s} {features:>8s} "
                f"{record.library_version:8s}"
            )
        return 0

    if args.models_command == "show":
        name, _, selector = args.spec.partition("@")
        if selector:
            name, version = registry.resolve(args.spec)
        else:
            try:
                name, version = registry.resolve(name)
            except ReproError:
                # Canary registrations (--no-promote on a fresh name) have
                # no promoted version yet; show the highest one, exactly
                # like `models list` does. Unknown names re-raise below.
                version = registry.versions(name)[-1].version
        record = registry.record(name, version)
        versions = [r.version for r in registry.versions(name)]
        print(f"name:            {record.name}")
        print(f"version:         {record.version}"
              + (" (latest)" if record.is_latest else ""))
        print(f"model_type:      {record.model_type}")
        print(f"library_version: {record.library_version}")
        print(f"n_features_in:   {record.n_features_in}")
        print(f"excluded_cols:   {record.excluded_columns}")
        if record.landmarks is not None:
            # Nyström fits solve on m landmarks yet serve arbitrary rows;
            # surface that so operators know the model's fidelity regime.
            print(f"landmarks:       {record.landmarks} (nystrom extension)")
        print(f"artifact:        {record.path}")
        print(f"all_versions:    {versions}")
        print(f"params:          {json.dumps(record.params, sort_keys=True)}")
        if record.stage_digests:
            # Fit-plan provenance: which graphs/Laplacians/projections and
            # solver configuration produced this representation.
            print("stage_digests:")
            for stage, digest in sorted(record.stage_digests.items()):
                print(f"  {stage:12s} {digest}")
        return 0

    # promote
    record = registry.promote(args.name, args.version)
    print(f"promoted {record.spec} to latest")
    return 0


def _cmd_serve(args) -> int:
    from .obs import get_registry
    from .serving import ServingServer, TransformService

    # The process registry, so /metrics exports every series this process
    # counts (ledger, eig, knn, merge, lifecycle), not only serving's.
    service = TransformService(
        _registry(args),
        cache_size=args.cache_size,
        metrics=get_registry(),
        drift=args.drift,
        drift_floor=args.drift_floor,
        drift_sample=args.drift_sample,
    )
    server = ServingServer(
        service,
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        max_queue=args.max_queue,
        max_body_bytes=int(args.max_body_mb * 1024 * 1024),
        request_timeout=args.timeout,
    )
    server.start()
    try:
        print(
            f"serving registry {service.registry.root} on {server.url} "
            f"({args.workers} workers, max_queue={args.max_queue}); "
            "Ctrl-C to stop",
            flush=True,
        )
        threading_event_wait()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _load_lifecycle_bundle(path: Path) -> dict:
    """Validate and unpack the ``--data`` .npz bundle."""
    if not path.exists():
        raise ReproError(f"data bundle not found: {path}")
    with np.load(path) as bundle:
        if "X" not in bundle or "w_fair" not in bundle:
            raise ReproError(
                f"{path} must contain arrays 'X' and 'w_fair' "
                f"(found: {sorted(bundle.files)})"
            )
        return {key: bundle[key] for key in bundle.files}


def _load_batch(path: Path) -> np.ndarray:
    """A ``watch`` batch file; a ValidationError when it cannot be read."""
    try:
        return np.load(path)
    except (ValueError, EOFError, OSError) as exc:
        raise ValidationError(f"unreadable batch file: {exc}") from exc


def _lifecycle_controller(args):
    """Build a LifecycleController from the CLI flags + data bundle."""
    from .core import PFR, LandmarkPlan
    from .lifecycle import (
        LifecycleController,
        RefreshPolicy,
        _check_holdout_tolerance,
    )

    # Options first: a rejected flag costs no bundle load and no plan fit.
    policy = RefreshPolicy(
        stale_fraction=args.stale_fraction,
        min_interval=args.min_interval,
        min_rows=args.min_rows,
    )
    _check_holdout_tolerance(args.holdout_tolerance)
    data = _load_lifecycle_bundle(Path(args.data))
    estimator = PFR(
        n_components=args.components,
        gamma=args.gamma,
        extension="nystrom",
        landmarks=args.landmarks,
    )
    plan = LandmarkPlan.for_estimator(estimator, data["X"], data["w_fair"])
    plan.fit(estimator)
    controller = LifecycleController(
        plan,
        estimator,
        registry=_registry(args),
        name=args.name,
        ledger=_ledger(args),
        policy=policy,
        holdout=data.get("X_holdout"),
        holdout_tolerance=args.holdout_tolerance,
    )
    controller.ensure_registered()
    return controller, data


def _print_lifecycle_event(event: dict, *, as_json: bool) -> None:
    if as_json:
        print(json.dumps(event, sort_keys=True))
        return
    refresh = event.get("refresh")
    print(
        f"ingested {event['rows']} rows "
        f"(pending={event['pending']}, "
        f"batch fidelity={event['batch_mean']:.3f}, "
        f"window drift={event['drift_fraction']:.1%})"
    )
    if refresh is not None:
        verdict = (
            "ROLLED BACK (holdout regression)"
            if refresh["rolled_back"] else "promoted"
        )
        print(
            f"refreshed -> version {refresh['version']} "
            f"({refresh['n_landmarks']} landmarks, "
            f"{refresh['seconds']:.2f}s) {verdict}"
        )


def _cmd_lifecycle(args) -> int:
    if args.lifecycle_command == "status":
        if args.url is not None:
            import urllib.request

            with urllib.request.urlopen(
                args.url.rstrip("/") + "/drift", timeout=10
            ) as response:
                status = json.loads(response.read())
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
                return 0
            if not status["enabled"]:
                print("drift accounting is disabled on this server "
                      "(start it with --drift)")
                return 0
            for spec, snap in sorted(status["models"].items()):
                if snap is None:
                    print(f"{spec}: no landmark coordinates, not scored")
                    continue
                print(
                    f"{spec}: {snap['count']} scored rows in window, "
                    f"mean fidelity {snap['mean']:.3f}, "
                    f"drift {snap['drift_fraction']:.1%} "
                    f"(floor {snap['floor']:g})"
                )
            if not status["models"]:
                print("no models warm yet")
            return 0
        if args.name is None:
            print("error: lifecycle status needs a model NAME or --url",
                  file=sys.stderr)
            return 2
        registry = _registry(args)
        records = registry.versions(args.name)
        rows = []
        for record in records:
            digests = record.stage_digests or {}
            rows.append({
                "version": record.version,
                "latest": record.is_latest,
                "landmarks": record.landmarks,
                "refreshed": "extend" in digests,
                "created_at": record.created_at,
            })
        lineage = None
        if args.store is not None:
            ledger = _ledger(args)
            lineage = [
                {"digest": e.digest, "parent": e.parent}
                for e in ledger.ls(kind="lifecycle_model")
                if e.task.get("name") == args.name
            ]
        if args.json:
            print(json.dumps(
                {"name": args.name, "versions": rows, "lineage": lineage},
                indent=2, sort_keys=True,
            ))
            return 0
        for row in rows:
            marks = []
            if row["latest"]:
                marks.append("latest")
            if row["refreshed"]:
                marks.append("refreshed")
            suffix = f" [{', '.join(marks)}]" if marks else ""
            print(
                f"v{row['version']}: {row['landmarks']} landmarks{suffix}"
            )
        if lineage is not None:
            print(f"{len(lineage)} ledger entries for {args.name!r}:")
            for entry in lineage:
                parent = (
                    f" <- {entry['parent'][:12]}…" if entry["parent"] else ""
                )
                print(f"  {entry['digest'][:12]}…{parent}")
        return 0

    if args.lifecycle_command == "refresh":
        controller, data = _lifecycle_controller(args)
        if "X_new" not in data:
            print("error: refresh needs an 'X_new' array in the data bundle",
                  file=sys.stderr)
            return 2
        event = controller.ingest(data["X_new"])
        if event["refresh"] is None and args.force:
            event["refresh"] = controller.refresh()
        _print_lifecycle_event(event, as_json=args.json)
        return 0

    # watch
    import time as _time

    controller, _ = _lifecycle_controller(args)
    incoming = Path(args.incoming)
    if not incoming.is_dir():
        print(f"error: --incoming directory not found: {incoming}",
              file=sys.stderr)
        return 2
    if not args.json:
        print(f"watching {incoming} for *.npy batches "
              f"(model {args.name!r}); Ctrl-C to stop", flush=True)
    ingested = 0
    try:
        while args.max_batches is None or ingested < args.max_batches:
            batches = sorted(incoming.glob("*.npy"))
            if not batches:
                _time.sleep(args.interval)
                continue
            for batch_path in batches:
                try:
                    event = controller.ingest(_load_batch(batch_path))
                except ValidationError as exc:
                    # Quarantine: a bad or unreadable batch must not stop
                    # the watch.
                    print(f"error: {batch_path.name}: {exc}", file=sys.stderr)
                    batch_path.rename(batch_path.with_suffix(".npy.rejected"))
                    continue
                event["batch_file"] = batch_path.name
                _print_lifecycle_event(event, as_json=args.json)
                # Consume: the producer sees .done and never re-submits.
                batch_path.rename(batch_path.with_suffix(".npy.done"))
                ingested += 1
                if args.max_batches is not None and ingested >= args.max_batches:
                    break
    except KeyboardInterrupt:
        pass
    if not args.json:
        status = controller.status()
        print(
            f"ingested {ingested} batches; "
            f"{status['refreshes']} refreshes, "
            f"{status['rollbacks']} rollbacks; "
            f"serving {args.name}@{status['serving']['version']}"
        )
    return 0


def threading_event_wait() -> None:
    """Block the main thread until KeyboardInterrupt (testable seam)."""
    import threading

    threading.Event().wait()


def _parse_workers(value):
    """CLI ``--workers``: None stays serial, 'auto' or a count fan out."""
    if value is None:
        return None
    if str(value).lower() == "auto":
        return "auto"
    return int(value)


def _csv(text: str) -> list[str]:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _cmd_experiments(args) -> int:
    from .experiments import tune_methods, workload_harness
    from .experiments.report import render_table

    workers = _parse_workers(args.workers)

    if args.experiments_command == "run":
        from .experiments import load_run_spec, run_spec

        spec = load_run_spec(args.spec)
        store = Path(args.store) if args.store else default_store_root()
        report = run_spec(
            spec, store=store, workers=workers, shard=args.shard
        )
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
            return 0
        shard_note = f" [shard {args.shard}]" if args.shard else ""
        print(
            f"spec {spec.name!r}{shard_note}: {report.n_total} cells — "
            f"{report.n_cached} cached, {report.n_computed} computed "
            f"(hit rate {report.hit_rate:.0%}) [store: {store}]"
        )
        if report.aggregates:
            print(render_table(
                ["dataset", "method", "gamma", "runs", "AUC", "Cons(WF)",
                 "Cons(WX)", "parity gap"],
                [[dataset, method, gamma, agg.n_runs, agg.format("auc"),
                  agg.format("consistency_wf"), agg.format("consistency_wx"),
                  agg.format("parity_gap")]
                 for (dataset, method, gamma), agg
                 in report.aggregates.items()],
            ))
        else:
            print(render_table(
                ["dataset", "method", "gamma", "seed", "AUC", "Cons(WF)",
                 "Cons(WX)", "parity gap"],
                [[dataset, method, gamma, seed, r.auc, r.consistency_wf,
                  r.consistency_wx, r.rates.gap("positive_rate")]
                 for (dataset, method, gamma, seed), r
                 in report.results.items()],
            ))
        return 0

    # tune
    harness = workload_harness(
        args.dataset, seed=args.seed, scale=args.scale, store=args.store
    )
    tuned = tune_methods(
        harness,
        methods=tuple(_csv(args.methods)),
        n_splits=args.splits,
        workers=workers,
    )
    if args.json:
        print(json.dumps(tuned, indent=2, sort_keys=True))
        return 0
    print(render_table(
        ["method", "best score", "best params"],
        [[method, out["best_score"],
          json.dumps(out["best_params"], sort_keys=True)]
         for method, out in tuned.items()],
    ))
    return 0


def _cmd_store(args) -> int:
    from .experiments.report import render_table

    if args.store_command == "merge":
        from .store import merge_stores

        report = merge_stores(
            args.dest, *args.sources, dry_run=args.dry_run
        )
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
            return 0 if not report.conflicts else 1
        verb = "would copy" if args.dry_run else "copied"
        print(
            f"{verb} {report.n_copied} entries "
            f"({len(report.models_copied)} with model blobs) into "
            f"{report.dest}; {report.n_deduped} already present "
            f"(dedupe rate {report.dedupe_rate:.0%})"
        )
        for note in report.self_merges:
            print(f"  skipped {note}: merging a store into itself is a no-op")
        for item in report.skipped:
            print(f"  SKIPPED {item['path']}: {item['reason']}")
        for digest in report.missing_models:
            print(f"  MISSING MODEL {digest[:16]}: entry claims a blob the "
                  "source does not have")
        for conflict in report.conflicts:
            print(f"  CONFLICT {conflict['digest'][:16]} "
                  f"(from {conflict['source']}): {conflict['error']}")
        if report.conflicts:
            print(f"{len(report.conflicts)} digest conflicts — the "
                  "destination's entries were kept; investigate the sources")
            return 1
        return 0

    ledger = _ledger(args)

    if args.store_command == "stats":
        counts = ledger.counts()
        stats = ledger.stats()
        if args.json:
            print(json.dumps(
                {"root": str(ledger.root), "counts": counts,
                 "session": stats},
                indent=2, sort_keys=True,
            ))
            return 0
        print(f"ledger {ledger.root}")
        print(f"entries:      {counts['entries']} "
              f"({counts['with_model']} with model blobs)")
        for kind, n in counts["by_kind"].items():
            print(f"  {kind or '(unknown)':16s} {n}")
        print(f"model blobs:  {counts['model_blobs']}")
        if counts["corrupt"]:
            print(f"corrupt:      {counts['corrupt']} "
                  "(repair: `repro store gc`)")
        print(f"this process: {stats['lookups']} lookups, "
              f"{stats['hits']} hits, {stats['puts']} puts")
        return 0

    if args.store_command == "ls":
        entries = ledger.ls(kind=args.kind)
        if args.json:
            print(json.dumps(
                [
                    {
                        "digest": e.digest,
                        "kind": e.kind,
                        "created_at": e.created_at,
                        "library_version": e.library_version,
                        "blas": e.blas,
                        "has_model": e.has_model,
                    }
                    for e in entries
                ],
                indent=2,
            ))
            return 0
        if not entries:
            print(f"ledger {ledger.root} is empty")
            return 0
        print(render_table(
            ["DIGEST", "KIND", "DATASET", "METHOD", "MODEL"],
            [[e.digest[:16], e.kind,
              str(e.task.get("harness", {}).get("dataset", {}).get("name",
                  e.task.get("dataset", "-"))),
              str(e.task.get("method", "-")),
              "yes" if e.has_model else "-"]
             for e in entries],
        ))
        print(f"{len(entries)} entries in {ledger.root}")
        return 0

    if args.store_command == "gc":
        report = ledger.gc(
            kind=args.kind,
            older_than=(
                args.older_than_days * 86400.0
                if args.older_than_days is not None else None
            ),
            dry_run=args.dry_run,
        )
        if args.json:
            print(json.dumps(report, indent=2))
            return 0
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"{verb} {len(report['removed'])} entries, "
            f"{len(report['corrupt'])} corrupt entries, "
            f"{len(report['orphans'])} orphaned model blobs, "
            f"{len(report['tmp_files'])} stray temp files"
        )
        return 0

    # verify
    report = ledger.verify()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0 if not report["problems"] else 1
    print(f"checked {report['checked']} entries in {ledger.root}")
    for problem in report["problems"]:
        print(f"  CORRUPT {problem['digest'][:16]}: {problem['error']}")
    if report["problems"]:
        print(f"{len(report['problems'])} problems found "
              "(repair: `repro store gc` after investigating)")
        return 1
    print("ledger OK")
    return 0


def _cmd_transform(args) -> int:
    from .serving import TransformService

    input_path = Path(args.input)
    if not input_path.exists():
        print(f"error: input file not found: {input_path}", file=sys.stderr)
        return 2
    X = np.loadtxt(input_path, delimiter=",", ndmin=2)
    if X.size == 0:
        print(f"error: {input_path} contains no data rows", file=sys.stderr)
        return 2

    # One-shot process: a result cache would only be thrown away at exit,
    # so skip the digest/copy bookkeeping entirely. Under --trace/--metrics
    # the service publishes into the global registry so its latency lands
    # in the trace's final metrics record and the stderr snapshot.
    metrics = None
    if getattr(args, "trace", None) or getattr(args, "metrics", False):
        from .obs import get_registry

        metrics = get_registry()
    service = TransformService(_registry(args), cache_size=0, metrics=metrics)
    Z = service.transform(args.spec, X)

    if args.output:
        np.savetxt(args.output, Z, delimiter=",", fmt="%.12g")
        print(f"wrote {Z.shape[0]} x {Z.shape[1]} representation to {args.output}")
    else:
        np.savetxt(sys.stdout, Z, delimiter=",", fmt="%.12g")
    return 0


def _cmd_obs(args) -> int:
    from .obs import format_trace_summary, read_trace, summarize_trace

    records = read_trace(args.trace)
    if args.obs_command == "summary":
        summary = summarize_trace(records)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_trace_summary(summary))
        return 0

    # tail
    n = max(int(args.n), 0)
    for record in records[len(records) - n:] if n else []:
        print(json.dumps(record, sort_keys=True))
    return 0


def _with_obs(args, command):
    """Run ``command()`` under the --trace/--metrics flags, if given.

    With neither flag this adds nothing — :mod:`repro.obs` is not even
    imported, keeping the untraced CLI byte-for-byte on its old path.
    ``--trace PATH`` scopes a JSONL sink around the command (the exit-time
    metrics record makes the file self-contained); ``--metrics`` prints
    the global registry snapshot to stderr after the command so stdout
    stays pipeable.
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if not trace_path and not want_metrics:
        return command()
    from .obs import format_metrics, get_registry, tracing

    if trace_path:
        with tracing(trace_path):
            code = command()
    else:
        code = command()
    if want_metrics:
        print(format_metrics(get_registry().snapshot()), file=sys.stderr)
    return code


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "models": _cmd_models,
    "serve": _cmd_serve,
    "lifecycle": _cmd_lifecycle,
    "experiments": _cmd_experiments,
    "store": _cmd_store,
    "transform": _cmd_transform,
    "obs": _cmd_obs,
}

# The commands that take --trace/--metrics through _with_obs.
_OBSERVED = ("serve", "lifecycle", "experiments", "transform")


def main(argv=None) -> int:
    """Entry point; returns a process exit code.

    The one error boundary of the CLI: library errors, bad values and
    file-system errors print ``error: ...`` and exit 2; a downstream
    consumer closing the pipe (e.g. ``| head``) exits 0.
    """
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        if args.command in _OBSERVED:
            return _with_obs(args, lambda: command(args))
        return command(args)
    except BrokenPipeError:
        # Redirect stdout so the interpreter's shutdown flush doesn't
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
