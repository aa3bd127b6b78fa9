"""Tests for the online scheduling extension."""

from __future__ import annotations

import pytest

from repro.core import validate_schedule
from repro.errors import ConfigurationError
from repro.geometry import Field, grid_deployment
from repro.online import (
    BatchScheduler,
    GreedyDispatch,
    compare_policies,
    evaluate_policy,
)
from repro.service import generate_requests
from repro.wpt import Charger, PowerLawTariff

FIELD = Field.square(300.0)


def make_chargers(m=4, capacity=6):
    return [
        Charger(
            f"c{j}", p,
            tariff=PowerLawTariff(base=30.0, unit=2e-3, exponent=0.9),
            efficiency=0.8, capacity=capacity,
        )
        for j, p in enumerate(grid_deployment(FIELD, m))
    ]


def make_requests(n=30, rate=1 / 30.0, seed=3):
    return generate_requests(n, rate=rate, field=FIELD, rng=seed)


class TestArrivals:
    def test_count_and_ordering(self):
        requests = make_requests(25)
        assert len(requests) == 25
        times = [r.submitted_at for r in requests]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_positions_in_field_and_ids_unique(self):
        requests = make_requests(25)
        assert all(FIELD.contains(r.device.position) for r in requests)
        ids = [r.device.device_id for r in requests]
        assert len(set(ids)) == len(ids)

    def test_seeded(self):
        a = make_requests(10, seed=9)
        b = make_requests(10, seed=9)
        assert [x.submitted_at for x in a] == [x.submitted_at for x in b]

    def test_mean_interarrival_matches_rate(self):
        requests = generate_requests(4000, rate=0.5, field=FIELD, rng=0)
        mean_gap = requests[-1].submitted_at / len(requests)
        assert mean_gap == pytest.approx(2.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_requests(-1, rate=1.0, field=FIELD)
        with pytest.raises(ConfigurationError):
            generate_requests(5, rate=0.0, field=FIELD)


class TestPolicies:
    @pytest.mark.parametrize(
        "policy", [GreedyDispatch(window=120.0), BatchScheduler(window=120.0)],
        ids=["greedy", "batch"],
    )
    def test_produces_feasible_schedule(self, policy):
        schedule, instance = policy.run(make_requests(30), make_chargers())
        validate_schedule(schedule, instance)
        assert instance.n_devices == 30

    @pytest.mark.parametrize(
        "policy_cls", [GreedyDispatch, BatchScheduler], ids=["greedy", "batch"]
    )
    def test_deterministic(self, policy_cls):
        a, _ = policy_cls(window=100.0).run(make_requests(20), make_chargers())
        b, _ = policy_cls(window=100.0).run(make_requests(20), make_chargers())
        assert a.canonical() == b.canonical()

    def test_greedy_respects_capacity(self):
        schedule, instance = GreedyDispatch(window=1e9).run(
            make_requests(30), make_chargers(capacity=2)
        )
        assert max(s.size for s in schedule.sessions) <= 2

    def test_tiny_window_forces_singletons(self):
        # Sessions depart immediately: nobody can ever join.
        schedule, _ = GreedyDispatch(window=1e-9).run(
            make_requests(15), make_chargers()
        )
        assert all(s.size == 1 for s in schedule.sessions)

    def test_infinite_window_allows_grouping(self):
        schedule, _ = GreedyDispatch(window=1e12).run(
            make_requests(15), make_chargers()
        )
        assert any(s.size > 1 for s in schedule.sessions)

    def test_batch_groups_within_windows(self):
        schedule, _ = BatchScheduler(window=600.0).run(
            make_requests(20, rate=1.0), make_chargers()
        )
        assert any(s.size > 1 for s in schedule.sessions)

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            GreedyDispatch(window=0.0)
        with pytest.raises(ConfigurationError):
            BatchScheduler(window=-1.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            GreedyDispatch().run([], make_chargers())


class TestHarness:
    def test_competitive_ratio_at_least_one_ish(self):
        # The clairvoyant solver sees everything, so online can't beat it
        # by more than CCSA's own suboptimality.
        out = evaluate_policy(
            GreedyDispatch(window=120.0), make_requests(30), make_chargers()
        )
        assert out.competitive_ratio >= 0.95
        assert out.competitive_ratio <= 2.5

    def test_compare_runs_same_stream(self):
        out = compare_policies(
            {
                "greedy": GreedyDispatch(window=120.0),
                "batch": BatchScheduler(window=120.0),
            },
            make_requests(25),
            make_chargers(),
        )
        assert set(out) == {"greedy", "batch"}
        # Identical clairvoyant baseline because the instance is identical.
        assert out["greedy"].offline_cost == pytest.approx(out["batch"].offline_cost)

    def test_batch_with_huge_window_matches_offline(self):
        # One batch containing everything *is* the offline solver.
        out = evaluate_policy(
            BatchScheduler(window=1e12), make_requests(20), make_chargers()
        )
        assert out.competitive_ratio == pytest.approx(1.0)

    def test_service_daemon_runs_under_the_harness(self):
        # The charging-service kernel, adapted as an online policy, is
        # feasible and competitive on the same footing as the schedulers.
        from repro.service import ServicePolicy

        out = evaluate_policy(ServicePolicy(), make_requests(25), make_chargers())
        assert out.policy == "online-service"
        assert 0.95 <= out.competitive_ratio <= 2.5

    def test_zero_offline_cost_does_not_divide_by_zero(self):
        # Regression: a degenerate free instance used to raise
        # ZeroDivisionError; now 0/0 reads as "matched the optimum" and
        # anything/0 as unbounded regret.
        from repro.online.harness import OnlineOutcome

        free = OnlineOutcome(policy="p", online_cost=0.0, offline_cost=0.0, n_sessions=1)
        assert free.competitive_ratio == 1.0
        worse = OnlineOutcome(policy="p", online_cost=3.0, offline_cost=0.0, n_sessions=1)
        assert worse.competitive_ratio == float("inf")
