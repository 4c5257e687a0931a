"""Pure arithmetic of the benchmark: percentiles, self time, /metrics deltas.

Nothing here imports ``repro``, so ``selftest.py`` checks every rule on
synthetic inputs without building a model.
"""

from __future__ import annotations

import math
import re

#: Percentiles a tail may be reported at, highest first.
TAIL_MENU = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail_percentile(n: int, cap: float = 99.0) -> float | None:
    """The highest percentile (at most ``cap``) with ten samples beyond it.

    ``n * (1 - p/100) >= 10`` must hold; ``None`` when even p75 lacks
    ten samples beyond it.
    """
    for p in TAIL_MENU:
        if p <= cap and n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def summarize(values, cap: float = 99.0) -> dict:
    """``{n, p50, tail_p, tail}``; ``tail`` is ``None`` for small samples."""
    values = list(values)
    p = tail_percentile(len(values), cap)
    return {
        "n": len(values),
        "p50": median(values) if values else None,
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


# -- spans --------------------------------------------------------------

def _covered(parent_start: float, parent_end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to the parent's."""
    clipped = sorted(
        (max(s, parent_start), min(e, parent_end))
        for s, e in intervals
        if min(e, parent_end) > max(s, parent_start)
    )
    total, cur_start, cur_end = 0.0, None, None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_table(records) -> dict:
    """Per span name: ``{"calls", "total_s", "self_s"}``.

    A span's self time is its duration minus the part of its interval
    that its direct children cover. ``records`` are trace records as
    ``repro.obs.read_trace`` returns them; non-span records are skipped.
    """
    spans = [r for r in records if r.get("type") == "span"]
    children: dict = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent is not None:
            start = record["ts"]
            children.setdefault(parent, []).append(
                (start, start + record["duration_s"])
            )
    table: dict = {}
    for record in spans:
        start = record["ts"]
        duration = record["duration_s"]
        covered = _covered(
            start, start + duration, children.get(record["span_id"], ())
        )
        row = table.setdefault(
            record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += max(0.0, duration - covered)
    return table


def span_stat(table: dict, name: str, key: str = "total_s") -> float:
    row = table.get(name)
    return float(row[key]) if row else 0.0


# -- Prometheus /metrics ------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{.*\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    """``{(metric, ((label, value), ...)): float}`` of a text exposition."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, label_text, value = match.groups()
        labels = tuple(sorted(_LABEL.findall(label_text or "")))
        samples[(name, labels)] = float(value)
    return samples


def prom_delta(before: dict, after: dict, metric: str, **labels) -> float:
    """Sum over series of ``metric`` matching ``labels`` of after - before."""
    wanted = set(labels.items())
    total = 0.0
    for (name, series_labels), value in after.items():
        if name != metric or not wanted <= set(series_labels):
            continue
        total += value - before.get((name, series_labels), 0.0)
    return total


def mean_from_delta(before: dict, after: dict, metric: str, **labels) -> float:
    """Mean observation over an interval from a summary's _sum/_count."""
    count = prom_delta(before, after, metric + "_count", **labels)
    if count <= 0:
        return 0.0
    return prom_delta(before, after, metric + "_sum", **labels) / count


# -- counters of an in-process MetricsRegistry snapshot --------------------

def counter_total(snapshot: dict, name: str) -> float:
    return sum(
        entry["value"]
        for entry in snapshot.get("counters", ())
        if entry["name"] == name
    )


def counter_delta(before: dict, after: dict, name: str) -> float:
    return counter_total(after, name) - counter_total(before, name)


# -- the open-loop scoring rules ---------------------------------------------

#: Completions over a step must reach this share of the offered rate.
PACE_FLOOR = 0.9


def step_verdict(step: dict, limit_ms: float, late_limit_ms: float) -> str:
    """``"pass"``, ``"fail"`` or ``"invalid"`` for one ladder step.

    ``step`` carries ``rate``, ``failed``, ``tail_ms`` (latency at the
    tail percentile, from due time), ``late_ms`` (the generator's tail
    send lateness) and ``pace`` (completions per second over the
    offered rate). A step whose generator fell behind is invalid: it
    says nothing about the server.
    """
    if step["late_ms"] > late_limit_ms:
        return "invalid"
    if step["failed"] or step["tail_ms"] is None:
        return "fail"
    if step["tail_ms"] > limit_ms or step["pace"] < PACE_FLOOR:
        return "fail"
    return "pass"


def max_rps(steps) -> float:
    """Highest rate among ``pass`` steps that no lower valid step failed.

    ``steps`` are dicts with ``rate`` and ``verdict``. A pass above a
    lower failure is noise, not capacity, so it does not count; invalid
    steps are skipped. Returns 0.0 when no step passes.
    """
    best = 0.0
    for step in sorted(steps, key=lambda s: s["rate"]):
        if step["verdict"] == "fail":
            break
        if step["verdict"] == "pass":
            best = float(step["rate"])
    return best
