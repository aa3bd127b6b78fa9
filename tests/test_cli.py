"""Tests for the ``ccs-bench`` command-line interface."""

from __future__ import annotations


import functools

import pytest

from repro.cli import main
from repro.experiments import (
    EXPERIMENTS,
    ResultCache,
    SerialExecutor,
    ascii_plot,
    fig9_runtime,
    fig12_ablation_capacity,
    fig12_ablation_tariff,
    runner,
    use_executor,
)

#: Small grids for the figure functions the registry calls, so a CLI run
#: of fig9 or fig12 takes about a second.
_SMALL = {
    "fig9_runtime": functools.partial(fig9_runtime, values=(6, 8), include_optimal_upto=6),
    "fig12_ablation_tariff": functools.partial(fig12_ablation_tariff, exponents=(0.9, 1.0)),
    "fig12_ablation_capacity": functools.partial(fig12_ablation_capacity, capacities=(4, 6)),
}

#: Each figure id → the figure functions whose series it reports, in order.
_SERIES = {
    "fig9": ("fig9_runtime",),
    "fig12": ("fig12_ablation_tariff", "fig12_ablation_capacity"),
}


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(EXPERIMENTS)

    def test_run_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_no_args_is_an_error(self, capsys):
        assert main([]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_unknown_id_is_an_error(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trials_flag_parsed(self, capsys):
        assert main(["table1", "--trials", "1"]) == 0

    def test_entry_point_registered(self):
        import tomllib

        with open("pyproject.toml", "rb") as fh:
            cfg = tomllib.load(fh)
        assert cfg["project"]["scripts"]["ccs-bench"] == "repro.cli:main"

    @pytest.mark.parametrize("eid", sorted(_SERIES))
    def test_plot_is_the_plain_text_plus_one_chart_per_series(
        self, eid, capsys, tmp_path, monkeypatch
    ):
        for name, small in _SMALL.items():
            monkeypatch.setattr(runner, name, small)
        # One cache dir: the --plot run and the series below replay the
        # plain run's task results, measured runtimes included.
        cache = str(tmp_path / "cache")
        assert main([eid, "--trials", "1", "--cache-dir", cache]) == 0
        plain = capsys.readouterr().out
        assert main([eid, "--trials", "1", "--cache-dir", cache, "--plot"]) == 0
        plotted = capsys.readouterr().out
        with use_executor(SerialExecutor(cache=ResultCache(cache))) as executor:
            charts = [ascii_plot(_SMALL[name](trials=1)) for name in _SERIES[eid]]
        assert executor.computed == 0
        assert plotted == plain + "\n\n".join(charts) + "\n\n"
