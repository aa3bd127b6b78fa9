"""Tests for the ASCII figure renderer and its CLI integration."""

from __future__ import annotations


import pytest

from repro.cli import main
from repro.experiments import SeriesResult, ascii_plot


def demo_series():
    s = SeriesResult("f", "Demo chart", "n", [10, 20, 40])
    s.add("NCA", [500.0, 1000.0, 2000.0])
    s.add("CCSA", [250.0, 500.0, 1000.0])
    return s


class TestAsciiPlot:
    def test_contains_title_legend_and_bounds(self):
        text = ascii_plot(demo_series())
        assert "Demo chart" in text
        assert "o NCA" in text and "x CCSA" in text
        assert "2000" in text and "250" in text
        assert "10" in text and "40" in text

    def test_canvas_dimensions(self):
        text = ascii_plot(demo_series(), width=40, height=8)
        plot_lines = [l for l in text.splitlines() if "|" in l]
        assert len(plot_lines) == 8
        assert all(len(l.split("|", 1)[1]) <= 40 for l in plot_lines)

    def test_nan_series_skipped(self):
        s = demo_series()
        s.add("OPT", [300.0, float("nan"), float("nan")])
        text = ascii_plot(s)
        assert "+ OPT" in text  # legend still lists it
        # exactly one '+' plotted (the finite point)
        canvas = "".join(l.split("|", 1)[1] for l in text.splitlines() if "|" in l)
        assert canvas.count("+") == 1

    def test_all_nan_raises(self):
        s = SeriesResult("f", "t", "x", [1, 2])
        s.add("a", [float("nan")] * 2)
        with pytest.raises(ValueError):
            ascii_plot(s)

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            ascii_plot(SeriesResult("f", "t", "x", [1]))

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot(demo_series(), width=4, height=2)

    def test_constant_series_plot(self):
        s = SeriesResult("f", "flat", "x", [1, 2, 3])
        s.add("a", [5.0, 5.0, 5.0])
        text = ascii_plot(s)
        assert "flat" in text


class TestCliPlotFlag:
    def test_plot_flag_renders_chart(self, capsys, tmp_path):
        # Its own cache directory: the default one is under the working
        # directory, where a later run would replay these results.
        argv = ["fig12", "--trials", "1", "--plot", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "|" in out  # chart canvas
        assert "CCSA saving %" in out

    def test_plot_flag_ignored_for_tables(self, capsys):
        assert main(["table1", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
