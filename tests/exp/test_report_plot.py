"""Tests for table and ASCII-plot rendering."""

import math

from repro.exp.asciiplot import render_cdf, render_heat_rows, render_series
from repro.exp.config import ExperimentConfig
from repro.exp.links import ConnLoss
from repro.exp.report import format_table
from repro.exp.runner import ConsumerRecord, ExperimentResult
from repro.sim.units import SEC


class TestTable:
    def test_alignment(self):
        out = format_table(["name", "value"], [["x", 1.23456], ["longer", 2]])
        lines = out.splitlines()
        # the name column is text -> left-aligned; the value column is
        # numeric -> right-aligned, so both cells end at the same offset
        assert lines[0].index("name") == lines[2].index("x")
        assert lines[2].rstrip().endswith("1.2346")
        assert lines[3].rstrip().endswith("     2")
        assert len(lines[2]) == len(lines[3])

    def test_numeric_column_right_aligns_header(self):
        out = format_table(["metric", "ms"], [["rtt", 1000.0], ["jit", 5.0]])
        lines = out.splitlines()
        assert lines[0].rstrip().endswith("       ms")
        assert lines[2].rstrip().endswith("1000.0000")
        assert lines[3].rstrip().endswith("   5.0000")

    def test_mixed_column_stays_left_aligned(self):
        out = format_table(["v"], [["5"], ["n/a"]])
        assert "n/a" in out
        lines = out.splitlines()
        assert lines[2].startswith("5")

    def test_placeholders_do_not_break_numeric_detection(self):
        out = format_table(["v"], [["5"], ["-"], ["nan"], [""]])
        lines = out.splitlines()
        # "-"/"nan"/"" are neutral; the column is judged numeric and
        # everything right-aligns
        assert lines[2].rstrip().endswith("  5")
        assert lines[3].rstrip().endswith("  -")

    def test_all_placeholder_column_is_not_numeric(self):
        out = format_table(["v"], [["-"], ["-"]])
        assert out.splitlines()[2].startswith("-")

    def test_percent_and_scientific_cells_count_as_numeric(self):
        out = format_table(["p"], [["12.5%"], ["1e-3"], ["+4"]])
        lines = out.splitlines()
        assert lines[2].rstrip().endswith("12.5%")
        assert lines[3].rstrip().endswith(" 1e-3")

    def test_title(self):
        out = format_table(["a"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_float_formatting(self):
        out = format_table(["v"], [[0.999499]])
        assert "0.9995" in out

    def test_bool_cells_are_not_numeric(self):
        out = format_table(["flag"], [[True], [False]])
        lines = out.splitlines()
        assert lines[2].startswith("True")


class TestPlots:
    def test_cdf_renders_all_series(self):
        out = render_cdf(
            {
                "tree": ([0.1, 0.2, 0.3], [0.33, 0.66, 1.0]),
                "line": ([0.5, 1.0], [0.5, 1.0]),
            },
            x_label="RTT [s]",
        )
        assert "a = tree" in out
        assert "b = line" in out
        assert "RTT [s]" in out

    def test_cdf_empty(self):
        assert render_cdf({}) == "(no data)"

    def test_series_bounds(self):
        out = render_series({"pdr": ([0, 10, 20], [1.0, 0.5, 0.75])})
        assert "1.00|" in out
        assert "0.00|" in out

    def test_series_empty(self):
        assert render_series({}) == "(no data)"

    def test_series_legend_and_axis(self):
        out = render_series(
            {"pdr": ([0, 30], [1.0, 0.9])}, x_label="t [min]"
        )
        assert "a = pdr" in out
        assert "t [min]" in out
        assert "30" in out.splitlines()[-2]  # x-axis max

    def test_series_clamps_out_of_range_values(self):
        # values outside [y_lo, y_hi] must land on the border rows,
        # not crash or index off the grid
        out = render_series({"v": ([0, 1], [-2.0, 5.0])})
        assert "a" in out

    def test_cdf_marker_on_top_row_at_full_probability(self):
        out = render_cdf({"x": ([1.0], [1.0])})
        assert out.splitlines()[0].count("a") == 1

    def test_heat_rows_shade_ordering(self):
        out = render_heat_rows({"n": [0.0, 1.0]})
        row = out.splitlines()[0]
        cells = row.split("|")[1]
        assert cells[0] == " " and cells[1] == "@"

    def test_heat_rows_with_nan(self):
        out = render_heat_rows({"node 1": [0.0, 0.5, 1.0, math.nan]})
        assert "?" in out
        assert "node 1" in out
        assert "scale" in out


class TestEventLog:
    def test_emit_and_filter(self):
        """``connection_losses()`` keeps one entry per loss: the
        coordinator's end, in close order."""
        log = ExperimentResult(
            config=ExperimentConfig(),
            producers=[],
            consumer=ConsumerRecord({}),
            nodes=[],
            conn_losses=[
                ConnLoss(10, 1, 2, "coordinator"),
                ConnLoss(10, 2, 1, "subordinate"),
                ConnLoss(30, 3, 4, "coordinator"),
                ConnLoss(30, 4, 3, "subordinate"),
            ],
            link_series={},
        )
        assert log.connection_losses() == [(10 / SEC, 1, 2), (30 / SEC, 3, 4)]
        assert log.num_connection_losses() == 2
