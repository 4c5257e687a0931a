"""Tests for repro.experiments.report — ASCII rendering."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    render_bars,
    render_decision_field,
    render_grouped_bars,
    render_series,
    render_table,
)


class TestRenderTable:
    def test_contains_headers_and_values(self):
        out = render_table(["name", "value"], [["pfr", 0.93], ["lfr", 0.7]])
        assert "name" in out and "pfr" in out and "0.930" in out

    def test_alignment_rule_line(self):
        out = render_table(["a"], [["x"]])
        lines = out.splitlines()
        assert set(lines[1]) == {"-"}

    def test_row_width_mismatch(self):
        with pytest.raises(ValidationError, match="cells"):
            render_table(["a", "b"], [["only-one"]])

    def test_custom_float_format(self):
        out = render_table(["v"], [[0.123456]], float_format="{:.1f}")
        assert "0.1" in out

    def test_empty_rows(self):
        out = render_table(["a", "b"], [])
        assert "a" in out


class TestRenderBars:
    def test_values_shown(self):
        out = render_bars(["x", "y"], [0.5, 1.0])
        assert "0.500" in out and "1.000" in out

    def test_bar_lengths_proportional(self):
        out = render_bars(["lo", "hi"], [0.25, 1.0], width=40, vmax=1.0)
        lines = out.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 40

    def test_label_value_mismatch(self):
        with pytest.raises(ValidationError):
            render_bars(["a"], [1.0, 2.0])

    def test_empty(self):
        assert render_bars([], []) == "(no data)"


class TestRenderGroupedBars:
    def test_structure(self):
        out = render_grouped_bars(
            ["P", "FPR"], {"s=0": [0.5, 0.2], "s=1": [0.4, 0.3]}
        )
        assert "P:" in out and "FPR:" in out
        assert "s=0" in out and "s=1" in out


class TestRenderSeries:
    def test_legend_and_axes(self):
        out = render_series(
            [0.0, 0.5, 1.0], {"auc": [0.6, 0.7, 0.8]}, x_label="gamma"
        )
        assert "auc" in out and "gamma" in out
        assert "0.800" in out and "0.600" in out

    def test_multiple_series_distinct_markers(self):
        out = render_series(
            [0, 1], {"a": [0.1, 0.2], "b": [0.3, 0.4]}
        )
        assert "o = a" in out and "x = b" in out

    def test_constant_series_safe(self):
        out = render_series([0, 1], {"flat": [0.5, 0.5]})
        assert "flat" in out

    def test_nan_values_skipped(self):
        out = render_series([0, 1, 2], {"s": [0.1, float("nan"), 0.3]})
        assert "s" in out

    def test_empty(self):
        assert render_series([0], {}) == "(no data)"


class TestRenderDecisionField:
    @pytest.fixture
    def points(self):
        return np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def test_shading_follows_probability(self, points):
        out = render_decision_field(
            points,
            np.array(["a", "a", "b", "b"]),
            lambda grid: (grid[:, 0] > 0).astype(float),
            width=20,
            height=8,
        )
        lines = out.splitlines()[:8]
        # left half near-empty shading, right half full blocks
        assert any("█" in line[12:] for line in lines)
        assert all("█" not in line[:6] for line in lines)

    def test_markers_drawn_on_top(self, points):
        out = render_decision_field(
            points,
            np.array(["a", "a", "b", "b"]),
            lambda grid: np.full(len(grid), 0.99),
        )
        assert "o" in out and "+" in out
        assert "o = a" in out

    def test_probability_range_validated(self, points):
        with pytest.raises(ValidationError, match="probability"):
            render_decision_field(
                points,
                np.array(["a"] * 4),
                lambda grid: np.full(len(grid), 3.0),
            )

    def test_bad_points_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            render_decision_field(
                np.ones((3, 3)), np.array(["a"] * 3), lambda g: np.zeros(len(g))
            )


class TestRenderDegenerateInputs:
    """Edge cases the sweep/aggregate pipelines can legitimately emit:
    empty series dicts, single-point sweeps, and NaN-valued metrics
    (e.g. per-group AUC on a single-class group)."""

    # -- render_series ------------------------------------------------------

    def test_series_all_nan_is_no_data(self):
        nan = float("nan")
        assert render_series([0, 1], {"s": [nan, nan]}) == "(no data)"

    def test_series_single_point(self):
        out = render_series([0.5], {"auc": [0.7]}, x_label="gamma")
        assert "auc" in out and "gamma" in out
        assert "0.700" in out  # the lone value labels both axis extremes

    def test_series_single_point_nan_x_span(self):
        # x_min == x_max triggers the degenerate-span guard; must not div/0.
        out = render_series([1.0], {"a": [0.2], "b": [0.4]})
        assert "o = a" in out and "x = b" in out

    def test_series_mixed_nan_keeps_finite_extent(self):
        out = render_series(
            [0, 1, 2], {"s": [0.2, float("nan"), 0.8]}
        )
        assert "0.800" in out and "0.200" in out

    def test_series_empty_x_with_empty_series(self):
        assert render_series([], {}) == "(no data)"

    def test_series_nan_only_series_alongside_finite(self):
        nan = float("nan")
        out = render_series([0, 1], {"dead": [nan, nan], "live": [0.1, 0.9]})
        assert "live" in out and "dead" in out  # legend still lists both

    # -- render_bars --------------------------------------------------------

    def test_bars_single_value(self):
        out = render_bars(["only"], [0.42])
        assert "only" in out and "0.420" in out

    def test_bars_all_zero_values(self):
        # vmax guard: max(values) == 0 must not divide by zero.
        out = render_bars(["a", "b"], [0.0, 0.0])
        assert "0.000" in out

    def test_bars_negative_values_clamped(self):
        out = render_bars(["neg", "pos"], [-0.5, 0.5])
        lines = out.splitlines()
        assert lines[0].count("█") == 0
        assert "-0.500" in lines[0]

    # -- render_grouped_bars ------------------------------------------------

    def test_grouped_bars_empty_series(self):
        assert render_grouped_bars(["P"], {}) == "(no data)"

    def test_grouped_bars_empty_value_lists(self):
        assert render_grouped_bars([], {"s=0": [], "s=1": []}) == "(no data)"

    def test_grouped_bars_all_zero(self):
        out = render_grouped_bars(["P"], {"s=0": [0.0], "s=1": [0.0]})
        assert "0.000" in out

    # -- render_table -------------------------------------------------------

    def test_table_nan_cell_renders(self):
        out = render_table(["m", "auc"], [["pfr", float("nan")]])
        assert "nan" in out

    def test_table_empty_rows_keeps_header_rule(self):
        out = render_table(["alpha", "beta"], [])
        lines = out.splitlines()
        assert lines[0].startswith("alpha")
        assert set(lines[1]) == {"-"}
        assert len(lines) == 2
