"""Tests for the charging-service daemon kernel: lifecycle, admission,
epoch machinery, determinism, and the built-in metrics."""

from __future__ import annotations

import pytest

from repro.core import Device
from repro.errors import ConfigurationError
from repro.geometry import Point
from repro.service import (
    ChargingRequest,
    ChargingService,
    RequestState,
    ServiceClock,
    ServiceConfig,
    earliest_departure,
    generate_requests,
)
from repro.service.admission import (
    REASON_CAPACITY,
    REASON_DEADLINE,
    REASON_DUPLICATE,
    REASON_PRICE,
    REASON_QUEUE_FULL,
)
from repro.wpt import Charger


def make_chargers(capacity=None):
    return [
        Charger(charger_id="c0", position=Point(20.0, 20.0), capacity=capacity),
        Charger(charger_id="c1", position=Point(80.0, 80.0), capacity=capacity),
    ]


def request(rid, x=10.0, y=10.0, t=1.0, demand=20e3, deadline=None, max_price=None):
    return ChargingRequest(
        request_id=rid,
        device=Device(device_id=f"dev-{rid}", position=Point(x, y), demand=demand),
        submitted_at=t,
        deadline=deadline,
        max_price=max_price,
    )


class TestClock:
    def test_monotone(self):
        clock = ServiceClock()
        assert clock.now == 0.0
        clock.advance(10.0)
        clock.advance(10.0)  # same target: idempotent no-op
        assert clock.now == 10.0

    def test_backwards_raises_typed_error_with_both_timestamps(self):
        from repro.errors import ClockError

        clock = ServiceClock()
        clock.advance(10.0)
        with pytest.raises(ClockError) as exc_info:
            clock.advance(5.0)
        err = exc_info.value
        assert (err.target, err.current) == (5.0, 10.0)
        assert "5.0" in str(err) and "10.0" in str(err)
        assert clock.now == 10.0  # the failed advance changed nothing

    def test_within_epsilon_is_a_no_op(self):
        clock = ServiceClock()
        clock.advance(10.0)
        clock.advance(10.0 - 1e-12)  # float-noise regression, not a bug
        assert clock.now == 10.0

    def test_rejects_nonfinite(self):
        clock = ServiceClock()
        with pytest.raises(ConfigurationError):
            clock.advance(float("nan"))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(epoch=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(window=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_active=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ServiceConfig(epoch=bad)
            with pytest.raises(ConfigurationError):
                ServiceConfig(window=bad)

    @pytest.mark.parametrize("method,args,kwargs", [
        ("advance", (float("nan"),), {}),
        ("advance", (float("inf"),), {}),
        ("fail_charger", ("c0",), {"at": float("nan")}),
        ("restore_charger", ("c0",), {"at": float("-inf")}),
        ("cancel", ("r1",), {"at": float("inf")}),
    ], ids=["advance-nan", "advance-inf", "fail-nan", "restore-inf", "cancel-inf"])
    def test_nonfinite_input_time_journals_nothing(self, tmp_path, method, args, kwargs):
        svc = ChargingService(make_chargers(), journal_path=tmp_path / "j.jsonl")
        svc.submit(request("r1"))
        seq = svc.journal.seq
        try:
            with pytest.raises(ConfigurationError, match="finite"):
                getattr(svc, method)(*args, **kwargs)
            assert svc.journal.seq == seq
        finally:
            svc.journal.close()

    def test_to_dict_round_trips_through_json(self):
        import json

        cfg = ServiceConfig(epoch=30.0, max_active=7)
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


class TestEarliestDeparture:
    def test_mid_epoch_submission(self):
        # Submitted at 10, epoch 60, window 120: fold at 60, depart at 180.
        assert earliest_departure(10.0, 60.0, 120.0) == 180.0

    def test_submission_on_boundary_waits_for_next_fold(self):
        assert earliest_departure(60.0, 60.0, 120.0) == 240.0

    def test_window_shorter_than_epoch(self):
        # Window 30 < epoch 60: departs one epoch after the fold.
        assert earliest_departure(0.0, 60.0, 30.0) == 120.0


class TestLifecycle:
    def test_happy_path_states(self):
        svc = ChargingService(make_chargers())
        r = request("r1", t=5.0)
        assert svc.submit(r) == RequestState.ADMITTED
        svc.advance(60.0)
        assert svc.request_state("r1") == RequestState.GROUPED
        svc.advance(180.0)  # window 120 after opening at 60
        assert svc.request_state("r1") == RequestState.CHARGING
        svc.advance(1e9)
        assert svc.request_state("r1") == RequestState.DONE
        sessions = svc.final_schedule()
        assert len(sessions) == 1
        assert sessions[0]["members"] == ["dev-r1"]
        assert sessions[0]["departed"] == 180.0

    def test_submit_is_idempotent(self):
        svc = ChargingService(make_chargers())
        r = request("r1")
        first = svc.submit(r)
        again = svc.submit(r)
        assert (first, again) == (RequestState.ADMITTED, RequestState.ADMITTED)
        assert svc.metrics_snapshot()["counters"]["submitted"] == 1

    def test_drain_terminates_everything(self):
        svc = ChargingService(make_chargers())
        for k in range(8):
            svc.submit(request(f"r{k}", t=1.0 + k))
        svc.drain()
        counts = svc.counts()
        assert counts[RequestState.DONE] == 8
        assert sum(counts.values()) == 8

    def test_nearby_devices_pool_into_one_session(self):
        svc = ChargingService(make_chargers())
        for k in range(4):
            svc.submit(request(f"r{k}", x=18.0 + k, y=20.0, t=1.0))
        svc.drain()
        sessions = svc.final_schedule()
        assert len(sessions) == 1
        assert sessions[0]["charger"] == "c0"
        assert len(sessions[0]["members"]) == 4

    def test_session_cost_accounting_matches_price(self):
        svc = ChargingService(make_chargers())
        for k in range(3):
            svc.submit(request(f"r{k}", x=20.0 + k, y=20.0, t=1.0))
        svc.drain()
        (session,) = svc.final_schedule()
        # Sum of realized per-member costs = session price + total moving
        # cost (devices at x = 20, 21, 22 walk 0, 1, 2 m at 0.05/m).
        total = sum(session["costs"].values())
        moving = 0.05 * (0.0 + 1.0 + 2.0)
        assert total == pytest.approx(session["price"] + moving, rel=1e-9)


class TestRejections:
    def test_price_rejection(self):
        svc = ChargingService(make_chargers())
        state = svc.submit(request("r1", max_price=1.0))
        assert state == RequestState.REJECTED
        assert svc.requests["r1"].reason == REASON_PRICE

    def test_deadline_rejection(self):
        # epoch 60, window 120 => earliest departure from t=1 is 180.
        svc = ChargingService(make_chargers())
        state = svc.submit(request("r1", t=1.0, deadline=100.0))
        assert state == RequestState.REJECTED
        assert svc.requests["r1"].reason == REASON_DEADLINE

    def test_queue_full_rejection(self):
        cfg = ServiceConfig(queue_limit=2)
        svc = ChargingService(make_chargers(), config=cfg)
        assert svc.submit(request("r1", t=1.0)) == RequestState.ADMITTED
        assert svc.submit(request("r2", t=2.0)) == RequestState.ADMITTED
        assert svc.submit(request("r3", t=3.0)) == RequestState.REJECTED
        assert svc.requests["r3"].reason == REASON_QUEUE_FULL

    def test_capacity_rejection(self):
        cfg = ServiceConfig(max_active=1)
        svc = ChargingService(make_chargers(), config=cfg)
        assert svc.submit(request("r1", t=1.0)) == RequestState.ADMITTED
        assert svc.submit(request("r2", t=2.0)) == RequestState.REJECTED
        assert svc.requests["r2"].reason == REASON_CAPACITY

    def test_duplicate_device_rejection(self):
        svc = ChargingService(make_chargers())
        r1 = request("r1", t=1.0)
        r2 = ChargingRequest(
            request_id="r2", device=r1.device, submitted_at=2.0
        )
        assert svc.submit(r1) == RequestState.ADMITTED
        assert svc.submit(r2) == RequestState.REJECTED
        assert svc.requests["r2"].reason == REASON_DUPLICATE

    def test_same_device_welcome_back_after_completion(self):
        svc = ChargingService(make_chargers())
        r1 = request("r1", t=1.0)
        svc.submit(r1)
        svc.advance(1e9)  # r1 runs to completion
        assert svc.request_state("r1") == RequestState.DONE
        r2 = ChargingRequest(
            request_id="r2", device=r1.device, submitted_at=svc.clock.now + 1.0
        )
        assert svc.submit(r2) == RequestState.ADMITTED

    def test_rejection_reason_counters(self):
        svc = ChargingService(make_chargers())
        svc.submit(request("r1", max_price=1.0))
        svc.submit(request("r2", t=1.0, deadline=50.0))
        counters = svc.metrics_snapshot()["counters"]
        assert counters["rejected"] == 2
        assert counters["rejected.price"] == 1
        assert counters["rejected.deadline"] == 1


class TestExpiry:
    def test_deadline_exactly_at_departure_is_met(self):
        # Submitted at 1, epoch 60, window 120: folds at 60, departs at
        # 180.  Deadline 180 is met — departures run before expirations.
        svc = ChargingService(make_chargers())
        state = svc.submit(request("r1", t=1.0, deadline=180.0))
        assert state == RequestState.ADMITTED
        svc.advance(1e6)
        assert svc.request_state("r1") == RequestState.DONE

    def test_plan_expiry_when_coalition_reopens_past_deadline(self):
        # Admission guarantees the *solo* path meets the deadline, but
        # replanner churn can land a device in a coalition whose window
        # restarted.  Simulate that: the request folds at 240 (would
        # depart 360, exactly its deadline), then its coalition re-opens
        # at 300 — departure slips to 420, so the kernel must expire the
        # request at the last boundary before it becomes unservable.
        svc = ChargingService(make_chargers())
        assert svc.submit(request("r3", t=181.0, deadline=360.0)) == RequestState.ADMITTED
        svc.advance(240.0)
        assert svc.request_state("r3") == RequestState.GROUPED
        (cid,) = svc.planner.live_cids()
        svc._opened_at[cid] = 300.0
        svc.advance(1e6)
        assert svc.request_state("r3") == RequestState.EXPIRED
        assert svc.requests["r3"].reason == "plan"
        assert svc.metrics_snapshot()["counters"]["expired.plan"] == 1


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        chargers = make_chargers()
        reqs = generate_requests(
            40, rate=0.25, deadline_slack=600.0, max_price_factor=1.3, rng=13
        )
        outputs = []
        for tag in ("a", "b"):
            svc = ChargingService(
                chargers, journal_path=tmp_path / f"{tag}.jsonl"
            )
            for r in reqs:
                svc.submit(r)
            svc.drain()
            svc.journal.close()
            outputs.append(
                (
                    (tmp_path / f"{tag}.jsonl").read_bytes(),
                    svc.final_schedule(),
                    svc.metrics_snapshot(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_advance_granularity_does_not_matter(self):
        chargers = make_chargers()
        reqs = generate_requests(20, rate=0.25, rng=5)
        svc_coarse = ChargingService(chargers)
        for r in reqs:
            svc_coarse.submit(r)
        svc_coarse.drain()

        svc_fine = ChargingService(chargers)
        k = 0
        t = 0.0
        while k < len(reqs):
            if reqs[k].submitted_at <= t:
                svc_fine.submit(reqs[k])
                k += 1
            else:
                t += 7.0
                svc_fine.advance(min(t, reqs[k].submitted_at))
        svc_fine.drain()
        assert svc_fine.final_schedule() == svc_coarse.final_schedule()


class TestMetrics:
    def test_snapshot_shape(self):
        svc = ChargingService(make_chargers())
        snap = svc.metrics_snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["submitted"] == 0
        assert "admission_latency" in snap["histograms"]
        buckets = snap["histograms"]["admission_latency"]["buckets"]
        assert "inf" in buckets

    def test_gauges_track_load(self):
        svc = ChargingService(make_chargers())
        svc.submit(request("r1", t=1.0))
        snap = svc.metrics_snapshot()
        assert snap["gauges"]["queue_depth"] == 1
        svc.advance(60.0)
        snap = svc.metrics_snapshot()
        assert snap["gauges"]["queue_depth"] == 0
        assert snap["gauges"]["active_devices"] == 1

    def test_histogram_buckets(self):
        from repro.service.metrics import Histogram

        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.7, 3.0, 9.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]  # the last bucket is the overflow
        assert h.total == 5
