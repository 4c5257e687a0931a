"""``serve-rows`` and ``serve-batch``: open-loop HTTP load on ``repro serve``.

The server is ``python -m repro serve`` with CLI defaults except registry
and port. The load generator (``loadgen.py``) is one asyncio thread with
at most ``nproc`` pipelined keep-alive connections; with two CPUs or
more, the server and the generator get one each. A run alternates steps
at a nominal rate (median latency from due time) with bursts of requests
sent at once (requests per second of server CPU time, and of wall time),
then climbs a fixed ladder of rates until a step fails: ``max_rps`` is
the highest rate that fails no request, keeps the tail latency within
the limit and keeps pace with the schedule.

* ``serve-rows``: single-row requests on a pinned ``rows@1`` linear PFR,
  drawn from a pool of 256 rows, so nearly every request is a cache hit
  and per-request cost is HTTP, JSON and dispatch.
* ``serve-batch``: 64 never-repeated rows per request on
  ``batch@latest``, a Nystrom KernelPFR registered as two versions with
  different gamma; once a second a ``promote`` on the same connections
  flips ``@latest``. Every response must equal the named version's
  transform, so a response mixing versions fails the run.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.core import PFR, KernelPFR, LandmarkPlan
from repro.datasets import simulate_blobs
from repro.graphs import knn_graph
from repro.io import load_model
from repro.ml import clone
from repro.serving import ModelRegistry, TransformService

from loadgen import Connection, request_bytes, run_schedule
from probes import Clock, TimedRegistry, process_cpu_s, process_peak_rss_mb
from stats import (
    max_rps,
    mean_from_delta,
    median,
    parse_prometheus,
    span_table,
    step_verdict,
    summarize,
)


@dataclass(frozen=True)
class Config:
    model: str          # registry name
    ladder: tuple       # offered rates, req/s, climbed until a step fails
    nominal: int        # rate at which p50/p99 and the layer split are read
    limit_ms: float     # tail latency limit for max_rps
    burst: int          # requests sent at once to measure capacity
    rows: int           # training rows
    landmarks: int      # Nystrom landmarks (serve-batch); 0 = linear PFR


# Nominal rates sit well below the capacity measured on a 2-CPU box with
# server and generator pinned (about 6000 req/s for single rows, 550 for
# 64-row batches), so the median is set by the server, not by queueing.
CONFIGS = {
    "serve-rows": Config("rows", (1000, 2000, 3000, 4000, 5000, 6000),
                         3000, 10.0, 8000, 2000, 0),
    "serve-batch": Config("batch", (100, 200, 300, 400, 500),
                          100, 50.0, 600, 10_000, 1000),
}
SMOKE = {
    "serve-rows": Config("rows", (250, 500), 250, 10.0, 200, 300, 0),
    "serve-batch": Config("batch", (25, 50), 25, 50.0, 20, 600, 64),
}
STEPS_PER_RUN = 15   # a step lasts --seconds / STEPS_PER_RUN (nominal: twice)
# Nominal steps and bursts; p50 and capacity are the best of them. Noise
# from neighbours on a shared host only adds latency and takes capacity
# away, so the best of several repetitions is the steadiest estimate.
N_ROUNDS = 5
BURST_RATE = 1e9     # "all at once"
GRACE_S = 2.0
BURST_GRACE_S = 60.0
N_FEATURES = 12
POOL_ROWS = 256
BATCH_ROWS = 64
GAMMAS = (0.25, 0.75)  # the two serve-batch versions
N_SETUPS = 3
# Stream labels: every step draws its requests from its own label, so no
# two steps of a run repeat a request.
WARM, NOMINAL, BURST, LADDER = range(4)


# -- the server process ----------------------------------------------------

class Server:
    """``python -m repro serve`` on an ephemeral port, stopped on exit."""

    def __init__(self, root, registry, cpus: list, trace=None):
        command = [sys.executable, "-m", "repro", "serve",
                   "--registry", str(registry), "--port", "0"]
        if trace is not None:
            command += ["--trace", str(trace)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=root
        )
        try:
            _pin(self.proc.pid, cpus, server=True)
            banner = self.proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _pin(pid: int, cpus: list, server: bool) -> None:
    """Give the server and the load generator a CPU each, when there are two.

    Left to the scheduler, the two processes share both CPUs differently
    from run to run, and the figures move with the placement.
    """
    if len(cpus) >= 2:
        os.sched_setaffinity(pid, {cpus[-1] if server else cpus[0]})


# -- inputs ----------------------------------------------------------------

def _fit_models(cfg: Config, seed: int) -> list:
    data = simulate_blobs(cfg.rows, n_features=N_FEATURES, seed=seed)
    w_fair = knn_graph(data.side_information[:, None], n_neighbors=8, bandwidth=1.0)
    if not cfg.landmarks:
        return [PFR(n_components=4, gamma=0.5).fit(data.X, w_fair)]
    estimator = KernelPFR(n_components=4, gamma=GAMMAS[0], extension="nystrom",
                          landmarks=cfg.landmarks)
    plan = LandmarkPlan.for_estimator(estimator, data.X, w_fair)
    models = []
    for gamma in GAMMAS:
        model = clone(estimator)
        model.gamma = gamma
        models.append(plan.fit(model))
    return models


def _setup(ctx, cfg: Config):
    """Fit, register every version, boot the server until healthy."""
    registry_dir = tempfile.mkdtemp(prefix="registry-", dir=ctx.work)
    registry = ModelRegistry(registry_dir)
    for model in _fit_models(cfg, ctx.seed):
        registry.register(cfg.model, model)
    return Server(ctx.root, registry_dir, ctx.cpus), registry_dir


class Stream:
    """The seeded requests of one workload, and what each must return."""

    def __init__(self, cfg: Config, seed: int, registry_dir):
        self.cfg = cfg
        self.seed = seed
        registry = ModelRegistry(registry_dir)
        self.models = {
            record.version: load_model(record.path)
            for record in registry.versions(cfg.model)
        }
        self.transform_clock = Clock()
        source = simulate_blobs(4096, n_features=N_FEATURES, seed=seed + 1).X
        if cfg.landmarks:
            self.source = source
        else:
            self.pool = source[:POOL_ROWS]
            body = {"model": f"{cfg.model}@1"}
            self.payloads = [
                request_bytes("POST", "/transform",
                              json.dumps({**body, "row": row.tolist()}).encode())
                for row in self.pool
            ]
            model = self.models[1]
            self.expected = [
                self.transform_clock(model.transform, row[None, :])[0].tolist()
                for row in self.pool
            ]

    def items(self, rate: float, count: int, label: tuple) -> list:
        """``count`` requests; each is ``(kind, payload, detail)``.

        A pure function of the arguments, so a stream can be replayed.
        """
        rng = np.random.default_rng([self.seed, *label])
        if not self.cfg.landmarks:
            picks = rng.integers(0, POOL_ROWS, size=count)
            return [("row", self.payloads[r], int(r)) for r in picks]
        items = []
        per_second = max(1, int(rate))
        for i in range(count):
            if i % per_second == per_second - 1:
                target = 1 + (i // per_second) % 2
                body = json.dumps({"version": target}).encode()
                items.append(("promote", request_bytes(
                    "POST", f"/models/{self.cfg.model}/promote", body), target))
                continue
            X = np.round(
                self.source[rng.integers(0, len(self.source), size=BATCH_ROWS)]
                + rng.normal(scale=0.05, size=(BATCH_ROWS, self.source.shape[1])),
                4,
            )
            body = json.dumps({"model": f"{self.cfg.model}@latest", "rows": X.tolist()})
            items.append(("rows", request_bytes("POST", "/transform", body.encode()), X))
        return items

    def verify(self, kind: str, detail, body: bytes, seen: dict) -> bool:
        """Whether one 200 response is exactly what its named version gives."""
        if kind == "row":
            key = (detail, body)
            if key not in seen:
                answer = json.loads(body)
                seen[key] = (answer["model"] == f"{self.cfg.model}@1"
                             and answer["row"] == self.expected[detail])
            return seen[key]
        answer = json.loads(body)
        if kind == "promote":
            return answer.get("version") == detail
        name, _, version = answer["model"].partition("@")
        model = self.models.get(int(version)) if name == self.cfg.model else None
        if model is None:
            return False
        expected = self.transform_clock(model.transform, detail)
        return np.array_equal(np.asarray(answer["rows"]), expected)


# -- one step of load ------------------------------------------------------

async def _scrape(conn) -> dict:
    status, body = await conn.exchange(request_bytes("GET", "/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_prometheus(body.decode("utf-8"))


async def _open(server, count: int) -> list:
    return [await Connection.open(server.host, server.port) for _ in range(count)]


class Load:
    """Connections to one server and the steps run through them."""

    def __init__(self, server, stream: Stream, n_conns: int):
        self.server = server
        self.spin = n_conns >= 2  # the generator has a CPU of its own
        self.stream = stream
        self.n_conns = n_conns
        self.conns: list = []
        self.steps: list = []
        self.wrong = 0
        self.attempted = 0
        self.failed = 0

    async def __aenter__(self):
        self.conns = await _open(self.server, self.n_conns)
        return self

    async def __aexit__(self, *exc_info):
        for conn in self.conns:
            await conn.close()

    async def step(self, rate: float, count: int, label: tuple, phase: str,
                   measured: bool = True, grace: float | None = None) -> dict:
        """Send ``count`` requests at ``rate``; verify and summarise them."""
        cfg = self.stream.cfg
        items = self.stream.items(rate, count, label)
        before = await _scrape(self.conns[0])
        # Generous grace: an overloaded step drains instead of timing out.
        if grace is None:
            grace = GRACE_S + 2 * count / rate
        cpu_before = process_cpu_s(self.server.proc.pid)
        # Spinning keeps a paced generator punctual; a burst needs no pacing.
        out = await run_schedule(self.conns, [p for _, p, _ in items], rate,
                                 grace, spin=self.spin and phase != "burst")
        cpu_s = process_cpu_s(self.server.proc.pid) - cpu_before
        if out.broken:
            for conn in self.conns:
                await conn.close()
            self.conns = await _open(self.server, self.n_conns)
        after = await _scrape(self.conns[0])

        seen: dict = {}
        latencies, failed, wrong = [], 0, 0
        for i, (kind, _, detail) in enumerate(items):
            if out.status[i] != 200:
                failed += 1
                continue
            if not self.stream.verify(kind, detail, out.body[i], seen):
                wrong += 1
            if kind != "promote":
                latencies.append((out.done[i] - out.due[i]) * 1000.0)
        late = [(s - d) * 1000.0 for s, d in zip(out.sent, out.due) if s is not None]
        answered = [d for d in out.done if d is not None]
        span = (max(answered) - out.t0) if answered else float("inf")
        lat = summarize(latencies)
        step = {
            "phase": phase,
            "rate": rate,
            "n": len(items),
            "failed": failed,
            "wrong": wrong,
            "p50_ms": lat["p50"],
            "tail_p": lat["tail_p"],
            "tail_ms": lat["tail"],
            "mean_ms": sum(latencies) / len(latencies) if latencies else None,
            "late_ms": _tail_or_max(late),
            "pace": (len(items) / rate) / span if span > 0 else 0.0,
            "throughput": len(answered) / span if span > 0 else 0.0,
            "server_cpu_s": cpu_s,
            "latencies": latencies,
            "http_ms": 1000 * mean_from_delta(
                before, after, "repro_http_request_seconds", route="/transform"),
            "service_ms": 1000 * mean_from_delta(
                before, after, "repro_serving_request_seconds"),
            "notes": out.notes,
            "bodies": [(k, d, out.body[i]) for i, (k, _, d) in enumerate(items)
                       if out.status[i] == 200],
        }
        step["verdict"] = step_verdict(step, cfg.limit_ms, cfg.limit_ms / 2)
        if measured:
            self.attempted += len(items)
            self.failed += failed
            self.wrong += wrong
            self.steps.append(step)
        return step


def _tail_or_max(values: list) -> float:
    tail = summarize(values)["tail"] if values else None
    return tail if tail is not None else max(values, default=0.0)


def _describe(step: dict) -> str:
    if step["phase"] == "burst":
        return (f"burst n={step['n']} at once: {step['throughput']:.1f} req/s, "
                f"server cpu {step['server_cpu_s']:.3f}s "
                f"failed={step['failed']} wrong={step['wrong']}")
    tail = (f"p{step['tail_p']:g}={step['tail_ms']:.3f}ms"
            if step["tail_ms"] is not None else "tail=n/a")
    p50 = f"{step['p50_ms']:.3f}" if step["p50_ms"] is not None else "n/a"
    return (
        f"{step['phase']:<7} {step['rate']:>7.1f} req/s n={step['n']:<6} p50={p50}ms {tail} "
        f"late={step['late_ms']:.3f}ms pace={step['pace']:.3f} "
        f"failed={step['failed']} wrong={step['wrong']} "
        f"wire={_wire(step):.3f}ms worker_self={step['http_ms'] - step['service_ms']:.3f}ms "
        f"service={step['service_ms']:.3f}ms -> {step['verdict']}"
        + ("" if not step["notes"] else f" ({'; '.join(step['notes'])})")
    )


def _wire(step: dict) -> float:
    return (step["mean_ms"] or 0.0) - step["http_ms"]


async def _warm(load: Load, cfg: Config, seconds: float) -> None:
    """Load both versions and fill the row cache before measuring."""
    if cfg.landmarks:
        for version in load.stream.models:
            X = load.stream.source[:BATCH_ROWS]
            body = json.dumps({"model": f"{cfg.model}@{version}", "rows": X.tolist()})
            await load.conns[0].exchange(request_bytes("POST", "/transform", body.encode()))
    else:
        for payload in load.stream.payloads:
            await load.conns[0].exchange(payload)
    await load.step(cfg.nominal, max(1, round(cfg.nominal * seconds)),
                    (WARM, 0), "warm-up", measured=False)


# -- the workload ----------------------------------------------------------

def run(ctx, result) -> None:
    cfg = (SMOKE if ctx.smoke else CONFIGS)[ctx.workload]
    n_conns = len(ctx.cpus)
    result.say(
        f"server: python -m repro serve (CLI defaults); model {cfg.model}: "
        + (f"KernelPFR nystrom n={cfg.rows} landmarks={cfg.landmarks} d=4, "
           f"versions gamma={GAMMAS}, {BATCH_ROWS} fresh rows per request on "
           f"@latest, a promote each second"
           if cfg.landmarks else
           f"linear PFR n={cfg.rows} d=4, single rows from a {POOL_ROWS}-row pool on @1")
    )
    result.say(f"load: open loop, 1 asyncio thread, {n_conns} pipelined connections; "
               f"p-tail limit {cfg.limit_ms:g} ms")
    _pin(0, ctx.cpus, server=False)
    try:
        if ctx.trace:
            asyncio.run(_run_traced(ctx, cfg, n_conns, result))
        else:
            asyncio.run(_run_ladder(ctx, cfg, n_conns, result))
    finally:
        os.sched_setaffinity(0, ctx.cpus)


async def _run_ladder(ctx, cfg, n_conns, result) -> None:
    setups = Clock()
    servers = []
    step_s = ctx.seconds / STEPS_PER_RUN
    try:
        for _ in range(1 if ctx.smoke else N_SETUPS):
            server, registry_dir = setups(_setup, ctx, cfg)
            servers.append(server)
            if len(servers) > 1:
                servers.pop(0).stop()
        server = servers[0]
        stream = Stream(cfg, ctx.seed, registry_dir)
        async with Load(server, stream, n_conns) as load:
            await _warm(load, cfg, step_s / 2)
            # Nominal steps and bursts alternate through the run, so a
            # noisy spell on a shared box spoils a few of them, not all.
            nominal, bursts = [], []
            for k in range(N_ROUNDS):
                nominal.append(await load.step(
                    cfg.nominal, max(1, round(cfg.nominal * 2 * step_s)),
                    (NOMINAL, k), "nominal"))
                bursts.append(await load.step(
                    BURST_RATE, cfg.burst, (BURST, k), "burst",
                    grace=BURST_GRACE_S))
            for rate in cfg.ladder:
                step = await load.step(rate, max(1, round(rate * step_s)),
                                       (LADDER, rate), "ladder")
                if step["verdict"] != "pass":
                    break
        peak = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()

    for step in load.steps:
        result.say(_describe(step))
    ladder = [s for s in load.steps if s["phase"] == "ladder"]
    pooled = summarize([x for s in nominal for x in s["latencies"]])
    result.attempted += load.attempted
    result.failed += load.failed
    result.check("every 200 response equals the named version's transform",
                 load.wrong == 0, f"{load.wrong} wrong" if load.wrong else "")
    result.check("every nominal step has a p50",
                 all(s["p50_ms"] is not None for s in nominal))
    result.metric("setup_s", median(setups.samples), "s", len(setups.samples),
                  "fit, register, boot until healthy")
    result.metric("peak_rss_mb", peak, "MB", 1, "server process")
    result.metric("p50_ms", min(s["p50_ms"] for s in nominal), "ms",
                  pooled["n"], f"best of {N_ROUNDS} steps' p50 at "
                  f"{cfg.nominal} req/s, from due time")
    result.metric("p99_ms", pooled["tail"] or 0.0, "ms", pooled["n"],
                  f"p{pooled['tail_p']} of the pooled nominal steps"
                  if pooled["tail"] is not None else "too few samples for a tail")
    result.metric("max_rps", max_rps(ladder), "req/s", len(ladder),
                  f"ladder rule: p-tail <= {cfg.limit_ms:g} ms, no failures, "
                  f"pace >= 0.9, generator on time")
    result.metric("capacity_rps", max(b["throughput"] for b in bursts),
                  "req/s", sum(b["n"] for b in bursts),
                  f"best of {N_ROUNDS} bursts of {cfg.burst} requests sent at once")
    # Capacity per CPU-second of the server: unlike wall-clock capacity it
    # does not count the time a shared host keeps the server waiting.
    result.metric("requests_per_cpu_s",
                  sum(b["n"] - b["failed"] for b in bursts)
                  / sum(b["server_cpu_s"] for b in bursts),
                  "1/s", sum(b["n"] for b in bursts),
                  "burst requests per second of server CPU time")
    result.report("setup_s", "setup_s")
    result.report("peak_rss_mb", "peak_rss_mb")
    result.report("latency_ms", "p50_ms")
    result.report("throughput_per_s", "requests_per_cpu_s")


async def _nominal_stream(ctx, cfg, n_conns, server, registry_dir, seconds):
    """The same seeded request stream at the nominal rate, verified."""
    if cfg.landmarks:
        ModelRegistry(registry_dir).promote(cfg.model, len(GAMMAS))
    stream = Stream(cfg, ctx.seed, registry_dir)
    async with Load(server, stream, n_conns) as load:
        await _warm(load, cfg, seconds / 4)
        step = await load.step(cfg.nominal, max(1, round(cfg.nominal * seconds)),
                               (NOMINAL, 0), "nominal")
    return load, step, stream


async def _run_traced(ctx, cfg, n_conns, result) -> None:
    seconds = ctx.seconds / 3
    server, registry_dir = _setup(ctx, cfg)
    try:
        plain_load, plain, stream = await _nominal_stream(
            ctx, cfg, n_conns, server, registry_dir, seconds)
    finally:
        server.stop()
    trace_path = ctx.work / "serve-trace.jsonl"
    server = Server(ctx.root, registry_dir, ctx.cpus, trace_path)
    try:
        traced_load, traced, _ = await _nominal_stream(
            ctx, cfg, n_conns, server, registry_dir, seconds)
    finally:
        server.stop()
    for label, step in (("untraced", plain), ("traced", traced)):
        result.say(f"{label}: {_describe(step)}")
    for load in (plain_load, traced_load):
        result.attempted += load.attempted
        result.failed += load.failed
    result.check("every 200 response equals the named version's transform",
                 plain_load.wrong == 0 and traced_load.wrong == 0)
    result.check("traced responses equal untraced ones",
                 _same_outputs(plain["bodies"], traced["bodies"]))

    from repro.obs import read_trace

    spans = span_table(read_trace(trace_path))
    for name in ("http.request", "serving.transform"):
        row = spans.get(name)
        if row:
            result.say(f"server span {name}: n={row['calls']} "
                       f"mean={1000 * row['total_s'] / row['calls']:.4f}ms")

    replay = _replay(cfg, registry_dir, stream, plain["rate"], plain["n"])
    transform_ms = 1000 * median(stream.transform_clock.samples)
    if not cfg.landmarks:
        transform_ms = 1000 * median(stream.transform_clock.samples[:POOL_ROWS])
    capacity = "requests_per_cpu_s (throughput_per_s) and max_rps"
    rows = [
        ("http.wire_ms", _wire(plain), "ms", plain["n"],
         "p50_ms (latency_ms), most on serve-rows"),
        ("http.worker_self_ms", plain["http_ms"] - plain["service_ms"], "ms",
         plain["n"], capacity + " on both; p99_ms on serve-batch"),
        ("serving.service_ms", plain["service_ms"], "ms", plain["n"],
         capacity + " on serve-batch; flat on serve-rows"),
        ("serving.registry.resolve_ms", replay["resolve_ms"], "ms",
         replay["requests"],
         capacity + " on serve-batch only (@latest stats the manifest)"),
        ("serving.cache.hit_ratio", replay["hit_ratio"], "ratio",
         replay["lookups"], "~1 on serve-rows, 0 on serve-batch"),
        ("core.transform_ms", transform_ms, "ms",
         len(stream.transform_clock.samples), capacity + " on serve-batch"),
        ("gen.late_ms", plain["late_ms"], "ms", plain["n"],
         "load generator only; not a program metric"),
        ("trace_overhead", (traced["p50_ms"] or 0.0) / (plain["p50_ms"] or 1.0),
         "ratio", traced["n"], "traced over untraced p50 latency"),
    ]
    for name, value, unit, n, moves in rows:
        result.layer(name, value, unit, n, moves)


def _same_outputs(plain: list, traced: list) -> bool:
    """Responses to the same request index and version must be identical."""
    if len(plain) != len(traced):
        return False
    for (kind, _, body_a), (_, _, body_b) in zip(plain, traced):
        if kind == "promote" or body_a == body_b:
            continue
        a, b = json.loads(body_a), json.loads(body_b)
        if a["model"] == b["model"]:
            return False
    return True


def _replay(cfg, registry_dir, stream: Stream, rate, count) -> dict:
    """Replay the nominal stream in-process through ``TransformService``."""
    registry = TimedRegistry(registry_dir)
    if cfg.landmarks:
        registry.promote(cfg.model, len(GAMMAS))
    service = TransformService(registry)
    registry.reset_timings()
    requests = 0
    for kind, _, detail in stream.items(rate, count, (NOMINAL, 0)):
        if kind == "row":
            service.transform_one_versioned(f"{cfg.model}@1", stream.pool[detail])
        elif kind == "rows":
            service.transform_versioned(f"{cfg.model}@latest", detail)
        else:
            registry.promote(cfg.model, detail)
            continue
        requests += 1
    totals = service.stats()["totals"]
    lookups = totals["cache_hits"] + totals["cache_misses"]
    return {
        "requests": requests,
        "resolve_ms": 1000 * registry.timing("resolve")[1] / max(1, requests),
        "hit_ratio": totals["cache_hits"] / lookups if lookups else 0.0,
        "lookups": lookups,
    }
