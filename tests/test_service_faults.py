"""Failure semantics in the service kernel: outages, cancels, no-shows.

The contracts under test (docs/FAULTS.md):

- A charger outage evacuates its coalitions; the members are re-quoted
  at the next epoch boundary **against their original admission quote**
  (the binding price ceiling).  Holds → re-fold through the incremental
  planner; broken → ``rejected`` with reason ``charger_failed``.  The
  original quote is never replaced by a worse one.
- Cancellations and no-shows remove members through the blessed
  incremental-plan paths, re-share the session cost among the
  survivors, and journal a compensating input record so recovery stays
  byte-identical.
- Fault events are inputs: idempotent per ``(event, target, at)`` key,
  journaled, and replayed by :meth:`ChargingService.recover`.
- Boundary processing order is pinned: completions → departures →
  expirations → fold, so a deadline exactly on a departure boundary is
  *met*, not expired.
"""

from __future__ import annotations

import pytest

from repro.core import Device
from repro.errors import ServiceError
from repro.geometry import Point
from repro.service import (
    ChargingRequest,
    ChargingService,
    Journal,
    RequestState,
    ServiceConfig,
)
from repro.service.admission import REASON_CHARGER_FAILED
from repro.service.loadgen import generate_keyed_requests
from repro.service.plan import IncrementalPlanner
from repro.core.costsharing import EgalitarianSharing, ProportionalSharing
from repro.faults import FaultPlan, apply_event, merge_timeline
from repro.wpt import Charger

CONFIG = ServiceConfig(epoch=60.0, window=120.0)


def make_chargers():
    return [
        Charger(charger_id="c0", position=Point(20.0, 20.0)),
        Charger(charger_id="c1", position=Point(80.0, 80.0)),
    ]


def request(rid, x=10.0, y=10.0, t=1.0, demand=20e3, deadline=None, max_price=None):
    return ChargingRequest(
        request_id=rid,
        device=Device(device_id=f"dev-{rid}", position=Point(x, y), demand=demand),
        submitted_at=t,
        deadline=deadline,
        max_price=max_price,
    )


def service(**kwargs):
    kwargs.setdefault("config", CONFIG)
    return ChargingService(make_chargers(), **kwargs)


class TestChargerOutage:
    def test_outage_evacuates_and_rejects_when_ceiling_breaks(self):
        svc = service()
        svc.submit(request("r1", x=10.0, y=10.0, t=5.0))
        svc.advance(60.0)
        assert svc.request_state("r1") == RequestState.GROUPED
        ceiling = svc.requests["r1"].quote
        assert svc.fail_charger("c0", at=70.0)
        assert svc.request_state("r1") == RequestState.EVACUATING
        svc.advance(120.0)
        # The only surviving charger is far away: the re-quote breaks the
        # original ceiling, so the request is rejected — never overcharged.
        record = svc.requests["r1"]
        assert record.state == RequestState.REJECTED
        assert record.reason == REASON_CHARGER_FAILED
        assert record.quote == ceiling  # the original quote was kept
        counters = svc.metrics_snapshot()["counters"]
        assert counters["charger_failures"] == 1
        assert counters["evacuated"] == 1

    def test_recovered_charger_refolds_under_the_original_quote(self):
        svc = service()
        svc.submit(request("r1", t=5.0))
        svc.advance(60.0)
        ceiling = svc.requests["r1"].quote
        svc.fail_charger("c0", at=70.0)
        svc.restore_charger("c0", at=90.0)
        svc.advance(120.0)
        record = svc.requests["r1"]
        assert record.state == RequestState.GROUPED
        assert record.quote == ceiling
        svc.drain()
        assert record.state == RequestState.DONE
        assert record.realized_cost <= ceiling + svc.planner.tol
        counters = svc.metrics_snapshot()["counters"]
        assert counters["refolded"] == 1
        assert counters["charger_recoveries"] == 1

    def test_all_chargers_down_rejects_at_submission(self):
        svc = service()
        svc.fail_charger("c0", at=1.0)
        svc.fail_charger("c1", at=1.0)
        assert svc.submit(request("r1", t=5.0)) == RequestState.REJECTED
        assert svc.requests["r1"].reason == REASON_CHARGER_FAILED

    def test_down_charger_never_receives_placements(self):
        svc = service()
        svc.fail_charger("c0", at=0.5)
        svc.submit(request("r1", x=10.0, y=10.0, t=5.0))  # nearest is c0
        svc.drain()
        for session in svc.final_schedule():
            assert session["charger"] == "c1"

    def test_fault_events_are_idempotent(self):
        svc = service()
        assert svc.fail_charger("c0", at=10.0) is True
        assert svc.fail_charger("c0", at=10.0) is False  # replayed key
        assert svc.fail_charger("c0", at=11.0) is False  # already down
        assert svc.restore_charger("c0", at=20.0) is True
        assert svc.restore_charger("c0", at=20.0) is False
        assert svc.restore_charger("c0", at=21.0) is False  # already up
        counters = svc.metrics_snapshot()["counters"]
        assert counters["charger_failures"] == 1
        assert counters["charger_recoveries"] == 1

    def test_unknown_charger_is_a_typed_error(self):
        svc = service()
        with pytest.raises(ServiceError):
            svc.fail_charger("c99")

    def test_gauges_track_availability(self):
        svc = service()
        assert svc.metrics_snapshot()["gauges"]["chargers_available"] == 2
        svc.fail_charger("c0", at=1.0)
        assert svc.metrics_snapshot()["gauges"]["chargers_available"] == 1

    def test_drain_resolves_evacuating_requests(self):
        svc = service()
        for k in range(4):
            svc.submit(request(f"r{k}", t=1.0 + k))
        svc.advance(60.0)
        svc.fail_charger("c0", at=70.0)
        svc.drain()
        for rid, record in svc.requests.items():
            assert record.state in RequestState.TERMINAL, (rid, record.state)


class TestCancellation:
    def test_cancel_queued_request(self):
        svc = service()
        svc.submit(request("r1", t=5.0))
        assert svc.cancel("r1", at=10.0) == RequestState.CANCELLED
        assert svc.request_state("r1") == RequestState.CANCELLED
        svc.drain()  # nothing left: the queue entry is gone
        assert svc.final_schedule() == []
        counters = svc.metrics_snapshot()["counters"]
        assert counters["cancelled"] == 1
        assert counters["cancelled.cancelled"] == 1

    @pytest.mark.parametrize("scheme", [EgalitarianSharing(), ProportionalSharing()])
    def test_cancel_grouped_member_reshapes_the_session(self, scheme):
        svc = ChargingService(make_chargers(), scheme=scheme, config=CONFIG)
        # Two nearby devices pair up on c0; cancelling one re-shares the
        # session cost among the survivor (and repairs its rationality).
        svc.submit(request("r1", x=10.0, y=10.0, t=1.0))
        svc.submit(request("r2", x=12.0, y=10.0, t=2.0))
        svc.advance(60.0)
        assert svc.request_state("r1") == RequestState.GROUPED
        assert svc.cancel("r1", at=70.0) == RequestState.CANCELLED
        svc.drain()
        record = svc.requests["r2"]
        assert record.state == RequestState.DONE
        assert record.realized_cost <= record.quote + svc.planner.tol
        sessions = svc.final_schedule()
        assert ["dev-r2"] in [s["members"] for s in sessions]
        assert all("dev-r1" not in s["members"] for s in sessions)

    def test_no_show_uses_its_own_reason_counter(self):
        svc = service()
        svc.submit(request("r1", t=5.0))
        svc.cancel("r1", at=5.0, reason="no-show")
        counters = svc.metrics_snapshot()["counters"]
        assert counters["cancelled.no-show"] == 1

    def test_cancel_unknown_request_returns_none(self):
        svc = service()
        assert svc.cancel("nope") is None

    def test_cancel_after_departure_is_too_late(self):
        svc = service()
        svc.submit(request("r1", t=5.0))
        svc.advance(180.0)  # departs at 180
        state = svc.request_state("r1")
        assert state == RequestState.CHARGING
        assert svc.cancel("r1", at=200.0) == RequestState.CHARGING
        svc.drain()
        assert svc.request_state("r1") == RequestState.DONE
        assert svc.metrics_snapshot()["counters"]["cancelled"] == 0

    def test_cancel_is_idempotent_per_key(self):
        svc = service(journal_path=None)
        svc.submit(request("r1", t=5.0))
        first = svc.cancel("r1", at=10.0)
        again = svc.cancel("r1", at=10.0)
        assert (first, again) == (RequestState.CANCELLED, RequestState.CANCELLED)
        assert svc.metrics_snapshot()["counters"]["cancelled"] == 1

    def test_cancel_evacuating_request(self):
        svc = service()
        svc.submit(request("r1", t=5.0))
        svc.advance(60.0)
        svc.fail_charger("c0", at=70.0)
        assert svc.request_state("r1") == RequestState.EVACUATING
        assert svc.cancel("r1", at=80.0) == RequestState.CANCELLED
        svc.drain()
        assert svc.request_state("r1") == RequestState.CANCELLED


class TestEvacuationExpiry:
    def test_outage_can_cost_a_tight_deadline_its_slot(self):
        # Deadline 180 was feasible (fold at 60, depart at 180), but the
        # outage forces a re-fold at 120, which restarts the commitment
        # window — the new departure (240) misses the deadline, so the
        # request expires instead of being silently served late.
        svc = service()
        svc.submit(request("r1", t=5.0, deadline=180.0))
        svc.advance(60.0)
        svc.fail_charger("c0", at=70.0)
        svc.restore_charger("c0", at=75.0)
        svc.advance(120.0)
        assert svc.request_state("r1") == RequestState.GROUPED  # refolded
        svc.advance(180.0)
        assert svc.request_state("r1") == RequestState.EXPIRED

    def test_evacuating_request_expires_and_drops_its_ceiling(self, tmp_path):
        # Grouped at 60, evacuated at 130: the boundary at 180 cannot fold
        # it in time for a departure by its deadline, so it expires from
        # the evacuation list, and its price ceiling goes with it.
        path = tmp_path / "svc.jsonl"
        svc = service(journal_path=path)
        svc.submit(request("r1", t=5.0, deadline=180.0))
        svc.advance(60.0)
        assert svc.request_state("r1") == RequestState.GROUPED
        index = svc.requests["r1"].device_index
        assert index in svc.planner.ceiling
        svc.fail_charger("c0", at=130.0)
        assert svc.request_state("r1") == RequestState.EVACUATING
        svc.advance(180.0)
        record = svc.requests["r1"]
        assert (record.state, record.reason) == (RequestState.EXPIRED, "evacuating")
        svc.journal.close()
        events = [(r["event"], r["t"], r["data"]) for r in Journal.read(path).records]
        down = [e for e, _t, _d in events].index("charger_down")
        assert events[down + 1:] == [
            ("evacuate", 130.0, {"id": "r1", "cause": "c0"}),
            ("advance", 180.0, {}),
            ("expire", 180.0, {"id": "r1", "where": "evacuating"}),
        ]
        assert svc.metrics_snapshot()["counters"]["expired.evacuating"] == 1
        assert index not in svc.planner.ceiling
        assert svc.counts()[RequestState.EXPIRED] == 1


class TestBoundaryOrder:
    def test_epoch_steps_run_in_pinned_order(self, monkeypatch):
        svc = service()
        order = []
        for name in ("_process_completions", "_process_departures",
                     "_process_expirations", "_fold"):
            original = getattr(svc, name)

            def wrapper(*args, _name=name, _original=original):
                order.append(_name)
                return _original(*args)

            monkeypatch.setattr(svc, name, wrapper)
        svc.submit(request("r1", t=5.0))
        svc.advance(60.0)
        # `advance` also runs stray completion sweeps outside the epoch
        # loop; the pinned order is the four steps around the first fold.
        fold = order.index("_fold")
        assert order[fold - 3 : fold + 1] == [
            "_process_completions", "_process_departures",
            "_process_expirations", "_fold",
        ]

    def test_deadline_exactly_on_departure_boundary_is_met(self):
        # Fold at 60, window 120 → departs at 180.  A deadline of exactly
        # 180 can still be met *because departures run before
        # expirations*; flipping that order would expire it.
        svc = service()
        svc.submit(request("r1", t=5.0, deadline=180.0))
        svc.advance(180.0)
        assert svc.request_state("r1") == RequestState.CHARGING
        svc.drain()
        assert svc.request_state("r1") == RequestState.DONE


class TestFaultRecovery:
    def test_fault_events_replay_byte_identical(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        svc = ChargingService(make_chargers(), config=CONFIG, journal_path=path)
        svc.submit(request("r1", t=5.0))
        svc.submit(request("r2", x=70.0, y=70.0, t=6.0))
        svc.advance(60.0)
        svc.fail_charger("c0", at=70.0)
        svc.cancel("r2", at=80.0)
        svc.restore_charger("c0", at=90.0)
        svc.drain()
        svc.journal.close()
        raw = path.read_bytes()
        rec = ChargingService.recover(path, make_chargers(), config=CONFIG)
        rec.journal.close()
        assert path.read_bytes() == raw
        assert rec.metrics_snapshot() == svc.metrics_snapshot()
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.counts() == svc.counts()

    def test_truncated_journal_with_faults_recovers_byte_identical(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        svc = ChargingService(make_chargers(), config=CONFIG, journal_path=path)
        svc.submit(request("r1", t=5.0))
        svc.advance(60.0)
        svc.fail_charger("c0", at=70.0)
        svc.restore_charger("c0", at=90.0)
        svc.advance(120.0)
        svc.drain()
        svc.journal.close()
        raw = path.read_bytes()
        lines = raw.decode().splitlines(keepends=True)
        # Kill right after the charger_down record: the outage is in the
        # journal, its consequences are re-derived, the rest is re-fed.
        cut = next(
            k for k, line in enumerate(lines) if '"charger_down"' in line
        ) + 1
        path.write_bytes("".join(lines[:cut]).encode())
        rec = ChargingService.recover(path, make_chargers(), config=CONFIG)
        assert rec.request_state("r1") == RequestState.EVACUATING
        # Re-feed the full input stream: everything already journaled is
        # a no-op, the tail replays, and the journal converges.
        rec.submit(request("r1", t=5.0))
        rec.fail_charger("c0", at=70.0)
        rec.restore_charger("c0", at=90.0)
        rec.advance(120.0)
        rec.drain()
        rec.journal.close()
        assert path.read_bytes() == raw


class TestEngineIdentity:
    """The daemon is the same program on either scan engine.

    A journaled, snapshotting kernel under a seeded fault plan (charger
    outages, cancels, no-shows, deadlines) runs once with the planner's
    object scans and once with its array scans.  The run repairs after
    folds, expiries and removals, evicts devices whose ceilings the
    surviving chargers cannot meet, and (proportional sharing at
    ``tol=0``) leaves a violator an ulp above its quote at its best
    singleton, which the next repair must recheck.  Journal and snapshot
    bytes, final schedule, metrics and planner tallies must be equal.
    """

    def _run(self, tmp_path, monkeypatch, engine, scheme, seed):
        monkeypatch.setenv("CCS_ENGINE", engine)
        chargers = [
            Charger(
                charger_id=f"c{j}",
                position=Point(15.0 + 35.0 * (j % 3), 15.0 + 35.0 * (j // 3)),
                capacity=2,
            )
            for j in range(6)
        ]
        requests = generate_keyed_requests(
            150, 0.2, seed, deadline_slack=300.0, max_price_factor=1.5
        )
        plan = FaultPlan.generate(
            seed,
            charger_ids=[c.charger_id for c in chargers],
            requests=requests,
            outage_prob=0.8,
            mean_outage=600.0,
            cancel_prob=0.2,
            no_show_prob=0.1,
            journal_faults=0,
        )
        lingered = []
        repair = IncrementalPlanner._repair

        def watched(planner):
            evicted = repair(planner)
            lingered.append(bool(planner._over))
            return evicted

        monkeypatch.setattr(IncrementalPlanner, "_repair", watched)
        directory = tmp_path / engine
        directory.mkdir()
        svc = ChargingService(
            chargers,
            scheme=scheme,
            config=ServiceConfig(epoch=60.0, window=120.0, tol=0.0),
            journal_path=directory / "svc.jsonl",
            journal_sync=False,
            snapshot_every=150,
        )
        assert svc.planner.engine == engine
        for item in merge_timeline(requests, plan):
            apply_event(svc, item)
        svc.drain()
        svc.journal.close()
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        return svc, files, any(lingered)

    @pytest.mark.parametrize(
        "scheme", [EgalitarianSharing(), ProportionalSharing()],
        ids=["egalitarian", "proportional"],
    )
    def test_object_and_array_daemons_are_byte_identical(
        self, tmp_path, monkeypatch, scheme
    ):
        obj, obj_files, obj_lingered = self._run(
            tmp_path, monkeypatch, "object", scheme, seed=3
        )
        arr, arr_files, arr_lingered = self._run(
            tmp_path, monkeypatch, "array", scheme, seed=3
        )
        assert any(".snap-" in name for name in arr_files)
        assert arr_files == obj_files
        assert arr.final_schedule() == obj.final_schedule()
        assert arr.metrics_snapshot() == obj.metrics_snapshot()
        assert arr.planner.ops == obj.planner.ops
        # What the run must cover for the comparison to mean something.
        counters = arr.metrics_snapshot()["counters"]
        journal = arr_files["svc.jsonl"].decode()
        assert '"cause":"ceiling"' in journal  # a repair evicted a device
        assert counters["cancelled"] > 0 and counters["evacuated"] > 0
        if isinstance(scheme, EgalitarianSharing):
            assert counters["expired.plan"] > 0
        else:
            assert arr_lingered and obj_lingered
