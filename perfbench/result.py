"""What one benchmark run found, and how it is printed."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Metric:
    value: float
    unit: str
    n: int
    note: str = ""


@dataclass
class Result:
    """Metrics, counts and checks of one workload run.

    ``e2e`` holds the end-to-end metrics under the names the workload's
    users know (``sweep_cold_s``, ``p99_ms`` ...); ``reported`` maps each
    benchmark-wide end-to-end name to one of them. ``layers`` holds the
    per-layer metrics of a traced run, each noting the end-to-end metric
    it should move.
    """

    workload: str
    e2e: dict = field(default_factory=dict)
    reported: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def metric(self, name, value, unit, n, note="") -> None:
        self.e2e[name] = Metric(float(value), unit, int(n), note)

    def report(self, json_name, name, scale: float = 1.0, unit=None) -> None:
        """Publish e2e metric ``name`` (times ``scale``) as ``json_name``."""
        metric = self.e2e[name]
        self.reported[json_name] = Metric(
            metric.value * scale, unit or metric.unit, metric.n, f"= {name}"
        )

    def layer(self, name, value, unit, n, moves) -> None:
        self.layers[name] = Metric(float(value), unit, int(n), moves)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def say(self, line: str) -> None:
        self.lines.append(line)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render(result: Result, json_metrics: dict) -> list[str]:
    """Human-readable lines; the JSON line is built separately."""
    out = [f"== workload {result.workload}"]
    out.extend(result.lines)
    for name, m in result.e2e.items():
        note = f"  [{m.note}]" if m.note else ""
        out.append(f"e2e   {name:<24} {_fmt(m.value):>12} {m.unit:<8} n={m.n}{note}")
    for name, m in result.layers.items():
        out.append(
            f"layer {name:<36} {_fmt(m.value):>12} {m.unit:<6} n={m.n}"
            f"  -> {m.note}"
        )
    for name, m in json_metrics.items():
        out.append(f"json  {name:<24} {_fmt(m.value):>12} {m.unit:<8} n={m.n}  {m.note}")
    for name, ok, detail in result.checks:
        out.append(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    out.append(f"ops   attempted={result.attempted} failed={result.failed}")
    return out


def final_line(result: Result, json_metrics: dict) -> str:
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": {
                name: {"value": m.value, "unit": m.unit}
                for name, m in json_metrics.items()
            },
        }
    )
