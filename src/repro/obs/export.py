"""Snapshot, summarize and render traces and metrics.

Two consumers share this module: the ``repro obs summary`` / ``repro obs
tail`` CLI (read a JSONL trace back into per-stage wall-time tables) and
the ``--metrics`` flag (render a registry snapshot as flat text).

A trace file interleaves two record types (see :mod:`repro.obs.trace`):
``span`` (one per timed region, from any process) and ``metrics`` (a
registry snapshot; the *last* one per pid wins, and pids are summed —
workers snapshot after every task precisely so that rule yields their
final state).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..exceptions import ValidationError

__all__ = [
    "format_metrics",
    "format_prometheus",
    "format_trace_summary",
    "read_trace",
    "summarize_trace",
]


def read_trace(path) -> list:
    """Parse a JSONL trace file into a list of record dicts.

    A torn final line (writer killed mid-append cannot happen with
    ``O_APPEND`` single writes, but a copy truncated in flight can) is
    tolerated; any *interior* unparsable line marks real corruption and
    raises, because silently dropping records would make summaries lie.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"trace file not found: {path}")
    records = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == len(lines) - 1:
                break  # torn tail from a truncated copy: drop it
            raise ValidationError(
                f"corrupt trace line {number + 1} in {path}: {exc}"
            ) from exc
        if isinstance(record, dict):
            records.append(record)
    return records


def _merged_metrics(records) -> dict:
    """Fold the metrics records: last snapshot per pid, summed across pids.

    Returns ``{"counters": {(name, labels-tuple): value}, "histograms":
    {(name, labels-tuple): summary-dict-with-summed count/sum}}``.
    """
    last_by_pid: dict = {}
    for record in records:
        if record.get("type") == "metrics":
            last_by_pid[record.get("pid")] = record.get("metrics", {})
    counters: dict = {}
    histograms: dict = {}
    for snapshot in last_by_pid.values():
        for entry in snapshot.get("counters", ()):
            key = (entry["name"], tuple(sorted(entry.get("labels", {}).items())))
            counters[key] = counters.get(key, 0.0) + float(entry["value"])
        for entry in snapshot.get("histograms", ()):
            key = (entry["name"], tuple(sorted(entry.get("labels", {}).items())))
            merged = histograms.setdefault(
                key, {"count": 0, "sum": 0.0, "max": 0.0}
            )
            merged["count"] += int(entry.get("count", 0))
            merged["sum"] += float(entry.get("sum", 0.0))
            merged["max"] = max(merged["max"], float(entry.get("max", 0.0)))
    return {"counters": counters, "histograms": histograms}


def _counter_total(counters: dict, name: str) -> float:
    return sum(value for (metric, _), value in counters.items() if metric == name)


def summarize_trace(records) -> dict:
    """Aggregate trace records into a JSON-safe summary.

    Returns::

        {
          "records": int, "spans": int, "processes": int,
          "stages": {name: {count, total_s, mean_s, max_s}},
          "cells": {"total", "cached", "computed"} | None,
          "ledger": {"hits", "misses", "lookups", "hit_rate",
                     "puts", "gets"} | None,
          "solve_cache": {"hits", "misses"} | None,
        }

    ``stages`` covers every span name; the fit-plan stage names
    (``plan.graph`` … ``plan.solve``) are what the acceptance table
    reads. ``cells`` comes from the last ``spec.run`` span's attributes —
    exact, by construction, because :func:`repro.experiments.run_spec`
    stamps its :class:`~repro.experiments.RunReport` counts there.
    """
    stages: dict = {}
    pids = set()
    n_spans = 0
    cells = None
    for record in records:
        pid = record.get("pid")
        if pid is not None:
            pids.add(pid)
        if record.get("type") != "span":
            continue
        n_spans += 1
        name = str(record.get("name", "?"))
        duration = float(record.get("duration_s", 0.0))
        stage = stages.setdefault(
            name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stage["count"] += 1
        stage["total_s"] += duration
        stage["max_s"] = max(stage["max_s"], duration)
        if name == "spec.run":
            attrs = record.get("attrs", {})
            if "total" in attrs:
                cells = {
                    "total": int(attrs.get("total", 0)),
                    "cached": int(attrs.get("cached", 0)),
                    "computed": int(attrs.get("computed", 0)),
                }
    for stage in stages.values():
        stage["mean_s"] = stage["total_s"] / stage["count"]

    merged = _merged_metrics(records)
    counters = merged["counters"]
    ledger = None
    hits = _counter_total(counters, "ledger.hits")
    misses = _counter_total(counters, "ledger.misses")
    if hits or misses:
        lookups = hits + misses
        ledger = {
            "hits": int(hits),
            "misses": int(misses),
            "lookups": int(lookups),
            "hit_rate": hits / lookups if lookups else 0.0,
            "puts": int(_counter_total(counters, "ledger.puts")),
            "gets": int(_counter_total(counters, "ledger.gets")),
        }
    solve_cache = None
    solve_hits = _counter_total(counters, "plan.solve_cache.hits")
    solve_misses = _counter_total(counters, "plan.solve_cache.misses")
    if solve_hits or solve_misses:
        solve_cache = {"hits": int(solve_hits), "misses": int(solve_misses)}

    return {
        "records": len(records),
        "spans": n_spans,
        "processes": len(pids),
        "stages": stages,
        "cells": cells,
        "ledger": ledger,
        "solve_cache": solve_cache,
    }


def format_trace_summary(summary: dict) -> str:
    """Flat-text rendering of :func:`summarize_trace` (the CLI table)."""
    from ..experiments.report import render_table

    lines = [
        f"{summary['records']} records, {summary['spans']} spans, "
        f"{summary['processes']} process(es)"
    ]
    if summary["stages"]:
        rows = [
            [
                name,
                stage["count"],
                f"{stage['total_s']:.6f}",
                f"{stage['mean_s']:.6f}",
                f"{stage['max_s']:.6f}",
            ]
            for name, stage in sorted(
                summary["stages"].items(),
                key=lambda item: -item[1]["total_s"],
            )
        ]
        lines.append(render_table(
            ["stage", "calls", "total_s", "mean_s", "max_s"], rows
        ))
    cells = summary.get("cells")
    if cells:
        lines.append(
            f"cells: {cells['total']} total — {cells['cached']} cached, "
            f"{cells['computed']} computed"
        )
    ledger = summary.get("ledger")
    if ledger:
        lines.append(
            f"ledger: {ledger['hits']}/{ledger['lookups']} lookups hit "
            f"({ledger['hit_rate']:.0%}), {ledger['puts']} puts"
        )
    solve = summary.get("solve_cache")
    if solve:
        lines.append(
            f"solve cache: {solve['hits']} hits, {solve['misses']} misses"
        )
    return "\n".join(lines)


_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, suffix: str = "") -> str:
    """A legal Prometheus metric name: ``repro_`` + sanitized + suffix."""
    return f"repro_{_PROM_BAD_CHARS.sub('_', str(name))}{suffix}"


def _prom_labels(labels: dict, extra: tuple = ()) -> str:
    """Render a label dict (plus extra (k, v) pairs) as ``{k="v",...}``."""
    items = [*sorted((str(k), str(v)) for k, v in labels.items()), *extra]
    if not items:
        return ""
    escaped = ",".join(
        key + '="'
        + value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        + '"'
        for key, value in items
    )
    return "{" + escaped + "}"


def format_prometheus(snapshot: dict) -> str:
    """Prometheus text-format rendering of a registry snapshot.

    This is what a serving replica's ``GET /metrics`` endpoint returns:
    counters become ``repro_<name>_total``, gauges map straight through,
    and the deterministic log-bucket histograms are exported as summaries
    (``quantile`` labels for p50/p90/p99 plus ``_count``/``_sum``), since
    their quantiles are already exact functions of the observed values.
    Series order follows the snapshot (sorted), so two scrapes of
    identical state are byte-identical.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def _type_line(metric: str, kind: str) -> None:
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} {kind}")

    for entry in snapshot.get("counters", ()):
        metric = _prom_name(entry["name"], "_total")
        _type_line(metric, "counter")
        lines.append(f"{metric}{_prom_labels(entry['labels'])} {entry['value']:g}")
    for entry in snapshot.get("gauges", ()):
        metric = _prom_name(entry["name"])
        _type_line(metric, "gauge")
        lines.append(f"{metric}{_prom_labels(entry['labels'])} {entry['value']:g}")
    for entry in snapshot.get("histograms", ()):
        metric = _prom_name(entry["name"])
        _type_line(metric, "summary")
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            label_text = _prom_labels(
                entry["labels"], extra=(("quantile", quantile),)
            )
            lines.append(f"{metric}{label_text} {entry[key]:g}")
        label_text = _prom_labels(entry["labels"])
        lines.append(f"{metric}_count{label_text} {entry['count']:g}")
        lines.append(f"{metric}_sum{label_text} {entry['sum']:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_metrics(snapshot: dict) -> str:
    """Flat-text rendering of a :meth:`MetricsRegistry.snapshot`."""
    lines = []

    def _label_text(labels: dict) -> str:
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return "{" + inner + "}"

    for entry in snapshot.get("counters", ()):
        lines.append(
            f"counter {entry['name']}{_label_text(entry['labels'])} "
            f"= {entry['value']:g}"
        )
    for entry in snapshot.get("gauges", ()):
        lines.append(
            f"gauge {entry['name']}{_label_text(entry['labels'])} "
            f"= {entry['value']:g}"
        )
    for entry in snapshot.get("histograms", ()):
        lines.append(
            f"histogram {entry['name']}{_label_text(entry['labels'])} "
            f"count={entry['count']} sum={entry['sum']:.6f} "
            f"mean={entry['mean']:.6f} p50={entry['p50']:.6f} "
            f"p90={entry['p90']:.6f} p99={entry['p99']:.6f} "
            f"max={entry['max']:.6f}"
        )
    return "\n".join(lines) if lines else "(no metrics recorded)"
