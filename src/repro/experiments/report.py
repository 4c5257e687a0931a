"""Text rendering of tables and figure series (matplotlib substitute).

The execution environment has no plotting stack, so every figure is
reproduced as its underlying *data series* plus an ASCII rendering good
enough to eyeball the paper's qualitative claims (who wins, where the
curves cross). ``repro run`` prints these renderings, and EXPERIMENTS.md,
which ``repro run all --output EXPERIMENTS.md`` regenerates, records them.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "render_table",
    "render_bars",
    "render_grouped_bars",
    "render_series",
    "render_decision_field",
]


def render_table(headers, rows, *, float_format: str = "{:.3f}") -> str:
    """Fixed-width table. ``rows`` is a list of sequences matching ``headers``."""
    headers = [str(h) for h in headers]

    def fmt(value):
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValidationError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in text_rows)) if text_rows else len(headers[j])
        for j in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "-" * len(line)
    body = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in text_rows
    ]
    return "\n".join([line, rule, *body])


def render_bars(labels, values, *, width: int = 40, vmax: float | None = None) -> str:
    """Horizontal bar chart: one label/value per line."""
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ValidationError("labels and values must align")
    if not values:
        return "(no data)"
    top = vmax if vmax is not None else max(max(values), 1e-12)
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round(width * max(value, 0.0) / top))
        bar = "█" * filled
        lines.append(f"{str(label).ljust(label_width)} |{bar.ljust(width)}| {value:.3f}")
    return "\n".join(lines)


def render_grouped_bars(
    group_labels, series: dict, *, width: int = 30, vmax: float | None = None
) -> str:
    """Bars grouped by label; ``series`` maps series name → list of values.

    Used for the per-group fairness figures (3, 6, 9): the groups are the
    measures (P(ŷ=1), FNR, FPR) and the series are the protected-group
    values.
    """
    names = list(series)
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        return "(no data)"
    top = vmax if vmax is not None else max(max(all_values), 1e-12)
    name_width = max(len(str(n)) for n in names)
    blocks = []
    for g, label in enumerate(group_labels):
        lines = [f"{label}:"]
        for name in names:
            value = float(series[name][g])
            filled = int(round(width * max(value, 0.0) / top))
            lines.append(
                f"  {str(name).ljust(name_width)} |{('█' * filled).ljust(width)}| {value:.3f}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_series(
    x, series: dict, *, width: int = 60, height: int = 14, x_label: str = "x"
) -> str:
    """ASCII line chart of one or more named series over a shared x grid."""
    x = [float(v) for v in x]
    if not series:
        return "(no data)"
    markers = "ox+*#@%&"
    all_y = [float(v) for values in series.values() for v in values if not math.isnan(float(v))]
    if not all_y:
        return "(no data)"
    y_min, y_max = min(all_y), max(all_y)
    if y_max == y_min:
        y_max = y_min + 1e-9
    x_min, x_max = min(x), max(x)
    if x_max == x_min:
        x_max = x_min + 1e-9

    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for xv, yv in zip(x, values):
            yv = float(yv)
            if math.isnan(yv):
                continue
            col = int(round((xv - x_min) / (x_max - x_min) * (width - 1)))
            row = int(round((y_max - yv) / (y_max - y_min) * (height - 1)))
            grid[row][col] = marker

    lines = []
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{y_max:.3f} "
        elif row_index == height - 1:
            label = f"{y_min:.3f} "
        else:
            label = " " * len(f"{y_max:.3f} ")
        lines.append(label + "|" + "".join(row))
    pad = " " * len(f"{y_max:.3f} ")
    lines.append(pad + "+" + "-" * width)
    lines.append(pad + f" {x_min:g}{' ' * max(width - 12, 1)}{x_max:g}  ({x_label})")
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def render_decision_field(
    points,
    categories,
    probability,
    *,
    width: int = 64,
    height: int = 24,
    markers: str = "o+x*",
) -> str:
    """Scatter plot over a classifier's probability field (Figure 1's look).

    ``probability(grid)`` is evaluated on a ``height × width`` grid spanning
    the data's bounding box; cells are shaded by P(ŷ=1) (``' '`` < 0.2,
    ``'·'`` < 0.4, ``':'`` < 0.6, ``'▒'`` < 0.8, ``'█'`` ≥ 0.8), with the
    data points drawn on top using per-category markers.
    """
    points = np.asarray(points, dtype=np.float64)
    categories = np.asarray(categories)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValidationError(f"points must have shape (n, 2); got {points.shape}")
    if len(categories) != len(points):
        raise ValidationError("categories must align with points")

    x, y = points[:, 0], points[:, 1]
    x_min, x_max = float(x.min()), float(x.max())
    y_min, y_max = float(y.min()), float(y.max())
    x_span = (x_max - x_min) or 1e-9
    y_span = (y_max - y_min) or 1e-9

    columns = np.linspace(x_min, x_max, width)
    rows = np.linspace(y_max, y_min, height)
    grid = np.column_stack(
        [np.tile(columns, height), np.repeat(rows, width)]
    )
    p = np.asarray(probability(grid), dtype=np.float64).reshape(height, width)
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        raise ValidationError("probability() must return values in [0, 1]")

    shades = " ·:▒█"
    field = [
        [shades[min(int(value * len(shades)), len(shades) - 1)] for value in row]
        for row in p
    ]
    unique = list(dict.fromkeys(categories.tolist()))
    for point, category in zip(points, categories):
        marker = markers[unique.index(category) % len(markers)]
        col = int(round((point[0] - x_min) / x_span * (width - 1)))
        row = int(round((y_max - point[1]) / y_span * (height - 1)))
        field[row][col] = marker

    lines = ["".join(row) for row in field]
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {category}" for i, category in enumerate(unique)
    )
    lines.append("-" * width)
    lines.append(legend + "   (shading = P(ŷ=1): ' '<0.2 … '█'≥0.8)")
    return "\n".join(lines)
