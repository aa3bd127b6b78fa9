"""Edge-case tests for the online scheduler building blocks."""

from __future__ import annotations

import pytest

from repro.core import Device, ccsga
from repro.errors import ConfigurationError
from repro.geometry import Field, Point, grid_deployment
from repro.mobility import ManhattanMobility
from repro.online import (
    BatchScheduler,
    GreedyDispatch,
    OnlineRun,
    OpenSession,
    evaluate_policy,
)
from repro.service import ChargingRequest, generate_requests
from repro.wpt import Charger, PowerLawTariff

FIELD = Field.square(200.0)


def make_chargers(capacity=4):
    return [
        Charger(
            f"c{j}", p,
            tariff=PowerLawTariff(base=20.0, unit=2e-3, exponent=0.9),
            efficiency=0.8, capacity=capacity,
        )
        for j, p in enumerate(grid_deployment(FIELD, 3))
    ]


def request(k, t, x=50.0, y=50.0, demand=15e3):
    return ChargingRequest(
        request_id=f"q{k}",
        device=Device(f"m{k}", Point(x, y), demand=demand, moving_rate=0.05),
        submitted_at=t,
    )


class TestOpenSession:
    def test_demands_tracks_members(self):
        s = OpenSession(charger=0, opened_at=0.0)
        s.members.append(Device("d", Point(0, 0), demand=7.0))
        assert s.demands() == [7.0]


class TestOnlineRun:
    def test_close_expired_moves_sessions(self):
        chargers = make_chargers()
        run = OnlineRun(chargers=chargers, mobility=ManhattanMobility())
        run.open_sessions.append(OpenSession(charger=0, opened_at=0.0))
        run.open_sessions.append(OpenSession(charger=1, opened_at=50.0))
        run.close_expired(now=60.0, window=30.0)
        assert len(run.open_sessions) == 1
        assert len(run.closed_sessions) == 1
        assert run.open_sessions[0].opened_at == 50.0

    def test_finish_drops_empty_sessions(self):
        chargers = make_chargers()
        run = OnlineRun(chargers=chargers, mobility=ManhattanMobility())
        d = Device("d", Point(10, 10), demand=5e3)
        run.devices.append(d)
        run.open_sessions.append(OpenSession(charger=0, opened_at=0.0, members=[d]))
        run.open_sessions.append(OpenSession(charger=1, opened_at=0.0))  # empty
        schedule, instance = run.finish("t")
        assert schedule.n_sessions == 1
        assert instance.n_devices == 1

    def test_finish_without_devices_rejected(self):
        run = OnlineRun(chargers=make_chargers(), mobility=ManhattanMobility())
        with pytest.raises(ConfigurationError):
            run.finish("t")


class TestPolicyEdgeCases:
    def test_single_arrival(self):
        schedule, instance = GreedyDispatch().run(
            [request(0, 1.0)], make_chargers()
        )
        assert schedule.n_sessions == 1
        assert instance.n_devices == 1

    def test_simultaneous_arrivals_group(self):
        requests = [request(k, 10.0, x=50.0 + k, y=50.0) for k in range(3)]
        schedule, _ = GreedyDispatch(window=60.0).run(requests, make_chargers())
        assert any(s.size > 1 for s in schedule.sessions)

    def test_capacity_forces_session_rollover(self):
        requests = [request(k, 10.0 + k, x=50.0, y=50.0) for k in range(6)]
        schedule, _ = GreedyDispatch(window=1e9).run(
            requests, make_chargers(capacity=2)
        )
        assert all(s.size <= 2 for s in schedule.sessions)
        assert schedule.n_sessions >= 3

    def test_custom_mobility_respected(self):
        requests = [request(0, 1.0, x=0.0, y=0.0)]
        _, instance = GreedyDispatch().run(
            requests, make_chargers(), mobility=ManhattanMobility()
        )
        p = instance.devices[0].position
        q = instance.chargers[0].position
        expected = instance.devices[0].moving_rate * p.manhattan_distance_to(q)
        assert instance.moving_cost(0, 0) == pytest.approx(expected)

    def test_batch_flushes_trailing_partial_window(self):
        requests = [request(k, 10.0 * k) for k in range(5)]
        schedule, instance = BatchScheduler(window=25.0).run(
            requests, make_chargers()
        )
        assert schedule.covered_devices() == frozenset(range(instance.n_devices))

    def test_custom_offline_solver_in_harness(self):
        requests = generate_requests(10, rate=0.05, field=FIELD, rng=4)
        out = evaluate_policy(
            GreedyDispatch(window=60.0),
            requests,
            make_chargers(),
            offline_solver=lambda inst: ccsga(inst, certify=False).schedule,
        )
        assert out.offline_cost > 0
