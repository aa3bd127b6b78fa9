"""Executable versions of the docs/API.md snippets.

Documentation that doesn't run is worse than none; this module keeps the
API guide honest by exercising each documented call pattern.
"""

from __future__ import annotations

import pytest

from repro import (
    CCSInstance,
    Charger,
    Device,
    EgalitarianSharing,
    Point,
    PowerLawTariff,
    ProportionalSharing,
    ccsa,
    ccsga,
    comprehensive_cost,
    member_costs,
    noncooperation,
    optimal_schedule,
    quick_instance,
    validate_schedule,
)
from repro.core import improve_schedule, lower_bound


@pytest.fixture
def doc_instance():
    devices = [
        Device("d0", Point(0, 0), demand=15e3, moving_rate=0.05, speed=1.5),
        Device("d1", Point(40, 10), demand=22e3, moving_rate=0.05),
    ]
    chargers = [
        Charger(
            "c0", Point(20, 20),
            tariff=PowerLawTariff(base=30.0, unit=2e-3, exponent=0.9),
            efficiency=0.8, transmit_power=5.0, capacity=6,
        ),
    ]
    return CCSInstance(devices=devices, chargers=chargers)


class TestBuildingSnippet:
    def test_cost_primitives(self, doc_instance):
        assert doc_instance.moving_cost(0, 0) > 0
        assert doc_instance.charging_price([0, 1], 0) > 0
        assert doc_instance.group_cost([0, 1], 0) > doc_instance.charging_price([0, 1], 0)
        assert doc_instance.standalone_cost(0) > 0

    def test_workloads_snippet(self):
        from repro.workloads import generate_instance, scenario

        spec = scenario("large").with_(capacity=None)
        inst = generate_instance(spec, seed=42)
        assert inst.capacity_of(0) is None


class TestSolvingSnippet:
    def test_all_documented_solvers(self, doc_instance):
        sched = ccsa(doc_instance)
        fast = ccsa(doc_instance, max_candidates=16)
        result = ccsga(doc_instance)
        solo = noncooperation(doc_instance)
        opt = optimal_schedule(doc_instance)
        best = improve_schedule(sched, doc_instance)
        bound = lower_bound(doc_instance).total
        for s in (sched, fast, result.schedule, solo, opt, best):
            validate_schedule(s, doc_instance)
        assert bound <= comprehensive_cost(opt, doc_instance) + 1e-9
        assert result.nash_certified

    def test_sharing_snippet(self, doc_instance):
        sched = ccsa(doc_instance)
        bills = member_costs(sched, doc_instance, ProportionalSharing())
        assert sum(bills.values()) == pytest.approx(
            comprehensive_cost(sched, doc_instance)
        )


class TestGameSnippet:
    def test_equilibrium_api(self, doc_instance):
        from repro.game import (
            CoalitionStructure,
            SociallyAwareSwitch,
            equilibrium_quality,
            is_nash_equilibrium,
        )

        sched = ccsga(doc_instance).schedule
        cs = CoalitionStructure.from_schedule(
            doc_instance, EgalitarianSharing(), sched
        )
        assert is_nash_equilibrium(cs, SociallyAwareSwitch())
        q = equilibrium_quality(doc_instance, samples=3)
        assert q.baseline in ("optimal", "lower-bound")

    def test_incremental_engine_api(self, doc_instance):
        from repro.core.costsharing import share_from_aggregates
        from repro.game import CoalitionStructure, SelfishSwitch, SociallyAwareSwitch

        cs = CoalitionStructure.singletons(doc_instance, EgalitarianSharing())
        cs.check_invariants()
        assert isinstance(cs.zobrist_hash(), int)
        c = cs.coalition_of(0)
        assert share_from_aggregates(
            cs.scheme, doc_instance, 0, c.size, c.total_demand, c.price
        ) == pytest.approx(c.price / c.size)
        assert SociallyAwareSwitch.has_potential and not SelfishSwitch.has_potential


class TestSimSnippet:
    def test_field_trial_api(self):
        from repro.sim import FieldTrialConfig, compare_field_trial, paired_improvements

        cfg = FieldTrialConfig(rounds=2, seed=3, outage_prob=0.1)
        res = compare_field_trial({"CCSA": ccsa, "NCA": noncooperation}, cfg)
        imps = paired_improvements(res["NCA"], res["CCSA"])
        assert len(imps) == 2

    def test_lifecycle_api(self):
        from repro.sim import LifecycleConfig, run_lifecycle

        life = run_lifecycle(ccsa, LifecycleConfig(epochs=6, seed=0))
        assert life.survival_rate <= 1.0
        assert len(life.requests_per_epoch) == 6


class TestOnlineMarketPlanningSnippets:
    def test_online_api(self):
        from repro.geometry import Field
        from repro.online import GreedyDispatch, compare_policies
        from repro.service import generate_requests

        field = Field.square(300.0)
        inst = quick_instance(5, 3, seed=1)
        requests = generate_requests(12, rate=1 / 30, field=field, rng=0)
        out = compare_policies(
            {"greedy": GreedyDispatch(window=120.0)}, requests, inst.chargers
        )
        assert out["greedy"].competitive_ratio > 0

    def test_market_api(self):
        from repro.market import CompetitionConfig, best_response_competition

        inst = quick_instance(8, 2, seed=2, heterogeneous_prices=False)
        comp = best_response_competition(inst, CompetitionConfig(max_rounds=2))
        assert len(comp.final_prices) == 2

    def test_planning_api(self, doc_instance):
        from repro.geometry import Field
        from repro.planning import candidate_sites, greedy_placement

        placed = greedy_placement(
            list(doc_instance.devices),
            candidate_sites(Field.square(100.0), 3),
            k=2,
            prototype=doc_instance.chargers[0],
        )
        assert len(placed.chargers) == 2


class TestNumericLintSnippet:
    def test_numeric_api(self):
        from repro.numeric import DEFAULT_REL_TOL, EXACT_ONE, is_exact, is_exact_zero, isclose

        assert is_exact_zero(0.0) and not is_exact_zero(1e-300)
        assert is_exact(1.0, EXACT_ONE)
        assert isclose(1.0, 1.0 + DEFAULT_REL_TOL / 2)

    def test_lint_api(self):
        from repro.lint import analyze_source

        report = analyze_source("import random\n", "snippet.py", module="repro/sim/noise.py")
        rendered = [f.render() for f in report.findings]
        assert rendered and rendered[0].startswith("snippet.py:1:1: CCS001")


class TestExperimentsIoStatsSnippets:
    def test_experiments_api(self):
        from repro.experiments import ascii_plot, fig12_ablation_tariff, render_series

        fig = fig12_ablation_tariff(exponents=(0.8, 1.0), trials=1)
        assert "Fig 12" in render_series(fig)
        assert "|" in ascii_plot(fig)

    def test_io_api(self, tmp_path, doc_instance):
        from repro.io import load_instance, load_schedule, save_instance, save_schedule

        sched = ccsa(doc_instance)
        save_instance(doc_instance, str(tmp_path / "i.json"))
        save_schedule(sched, doc_instance, str(tmp_path / "s.json"))
        inst = load_instance(str(tmp_path / "i.json"))
        assert load_schedule(str(tmp_path / "s.json"), inst).canonical() == sched.canonical()

    def test_stats_api(self):
        from repro.stats import mean_ci, paired_t_test

        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.low <= ci.mean <= ci.high
        # Non-constant differences keep scipy's moment calculation happy.
        t = paired_t_test([5.0, 6.0, 7.0], [4.2, 4.9, 6.1])
        assert t.mean_difference == pytest.approx(0.9333, abs=1e-3)
