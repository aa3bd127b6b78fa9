"""Chaos suite: service invariants under randomized fault injection.

Hypothesis drives seed-derived request streams and fault plans through
the kernel and asserts, after *every* injected event:

1. **Ceiling**: no request is ever charged more than its original
   admission quote (plus the planner tolerance) — not after outages,
   not after re-folds, not after survivor re-sharing.
2. **Cache coherence**: the incremental coalition structure's cached
   aggregates, fingerprints, and Zobrist hash match a from-scratch
   recomputation (``check_invariants``).
3. **Bookkeeping**: the kernel's request-to-plan maps mirror the
   structure's placements exactly, and the lifecycle containers mirror
   the records' states: price ceilings are held by exactly the grouped
   and evacuating requests, the queue is the admitted requests in
   submit order, the evacuation list is the evacuating ones, and the
   device holds count the live requests per device.
4. **Terminality**: after ``drain()`` every request is terminal and no
   price ceiling is left.
5. **Durability**: the journal replays byte-identically from any
   truncation point, and the shard supervisor's crash → recover →
   re-feed loop, driving a one-shard facade under injected journal
   faults, converges on the exact journal an uninterrupted
   fault-free-disk kernel writes.

The quick versions run in tier-1; the ``chaos``-marked heavy versions
(hundreds of examples) run via ``make chaos``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.service import (
    ChargingService,
    Journal,
    RequestState,
    ServiceConfig,
    generate_requests,
)
from repro.faults import FaultPlan, apply_event, drive, merge_timeline
from repro.shard import ShardedService, ShardSupervisor
from repro.wpt import Charger

CONFIG = ServiceConfig(epoch=60.0, window=120.0)


def make_chargers():
    return [
        Charger(charger_id="c0", position=Point(20.0, 20.0)),
        Charger(charger_id="c1", position=Point(80.0, 80.0)),
        Charger(charger_id="c2", position=Point(50.0, 10.0)),
    ]


def make_stream(seed, n=10):
    return generate_requests(
        n, rate=0.05, deadline_slack=4000.0, max_price_factor=1.5, rng=seed
    )


def make_plan(seed, requests, journal_faults=0):
    return FaultPlan.generate(
        seed,
        charger_ids=[c.charger_id for c in make_chargers()],
        requests=requests,
        outage_prob=0.7,
        cancel_prob=0.2,
        no_show_prob=0.1,
        journal_faults=journal_faults,
    )


def assert_invariants(svc):
    """The per-event invariant bundle (module docstring items 1–3)."""
    svc.planner.structure.check_invariants()
    tol = svc.planner.tol
    placed = set(svc.planner.structure._of_device)
    mapped = set(svc._rid_of_index)
    assert mapped == placed, f"kernel maps {mapped} != structure {placed}"
    for rid, record in svc.requests.items():
        if record.realized_cost is not None and record.quote is not None:
            assert record.realized_cost <= record.quote + tol, (
                f"{rid} charged {record.realized_cost} over quote {record.quote}"
            )
        if record.state == RequestState.GROUPED:
            assert record.device_index in placed
        if record.state == RequestState.EVACUATING:
            assert rid in svc._evacuating
            assert record.device_index not in placed
    records = svc.requests.values()
    held = {
        r.device_index for r in records
        if r.state in (RequestState.GROUPED, RequestState.EVACUATING)
    }
    assert set(svc.planner.ceiling) == held
    admitted = [rid for rid, r in svc.requests.items() if r.state == RequestState.ADMITTED]
    assert svc._queue == admitted
    evacuating = [rid for rid, r in svc.requests.items() if r.state == RequestState.EVACUATING]
    assert sorted(svc._evacuating) == sorted(evacuating)
    live = Counter(
        r.request.device.device_id for r in records if r.state in RequestState.LIVE
    )
    assert svc._live_devices == dict(live)


class TestInvariantsUnderChaos:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_seed=st.integers(0, 10_000), fault_seed=st.integers(0, 10_000))
    def test_every_event_preserves_the_invariants(self, stream_seed, fault_seed):
        requests = make_stream(stream_seed)
        plan = make_plan(fault_seed, requests)
        svc = ChargingService(make_chargers(), config=CONFIG)
        for item in merge_timeline(requests, plan):
            apply_event(svc, item)
            assert_invariants(svc)
        svc.drain()
        assert_invariants(svc)
        assert not svc.planner.ceiling
        for rid, record in svc.requests.items():
            assert record.state in RequestState.TERMINAL, (rid, record.state)

    @pytest.mark.chaos
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_seed=st.integers(0, 1_000_000),
           fault_seed=st.integers(0, 1_000_000),
           n=st.integers(5, 25))
    def test_every_event_preserves_the_invariants_heavy(
        self, stream_seed, fault_seed, n
    ):
        requests = make_stream(stream_seed, n=n)
        plan = make_plan(fault_seed, requests)
        svc = ChargingService(make_chargers(), config=CONFIG)
        for item in merge_timeline(requests, plan):
            apply_event(svc, item)
            assert_invariants(svc)
        svc.drain()
        assert_invariants(svc)
        assert not svc.planner.ceiling
        for record in svc.requests.values():
            assert record.state in RequestState.TERMINAL


class TestDurabilityUnderChaos:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), frac=st.floats(0.1, 0.95))
    def test_any_truncation_point_recovers_byte_identical(self, seed, frac, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("chaos")
        requests = make_stream(seed)
        plan = make_plan(seed + 1, requests)
        path = tmp_path / "svc.jsonl"
        svc = ChargingService(make_chargers(), config=CONFIG, journal_path=path,
                              journal_sync=False)
        drive(svc, requests, plan)
        svc.journal.close()
        raw = path.read_bytes()
        # Kill at an arbitrary *byte* — mid-record cuts model kill -9.
        cut = max(1, int(len(raw) * frac))
        path.write_bytes(raw[:cut])
        rec = ChargingService.recover(path, make_chargers(), config=CONFIG,
                                      journal_sync=False)
        drive(rec, requests, plan)  # idempotent re-feed of the same inputs
        rec.journal.close()
        assert path.read_bytes() == raw
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.metrics_snapshot() == svc.metrics_snapshot()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_journal_fault_crash_loop_converges(self, seed, tmp_path_factory):
        requests = make_stream(seed)
        plan = make_plan(seed + 1, requests, journal_faults=3)
        assert_crash_loop_converges(tmp_path_factory.mktemp("chaos"), requests, plan)

    @pytest.mark.chaos
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1_000_000), faults=st.integers(1, 6))
    def test_journal_fault_crash_loop_converges_heavy(self, seed, faults,
                                                      tmp_path_factory):
        requests = make_stream(seed, n=15)
        plan = make_plan(seed + 1, requests, journal_faults=faults)
        assert_crash_loop_converges(tmp_path_factory.mktemp("chaos"), requests, plan)


def assert_crash_loop_converges(tmp_path, requests, plan):
    """Drive a one-shard facade through the supervisor's crash loop and
    hold it to an uninterrupted fault-free-disk kernel (item 5)."""
    armed = len(plan.journal_faults())
    svc = ShardedService(make_chargers(), n_shards=1, config=CONFIG,
                         journal_dir=tmp_path / "faulty", journal_sync=False)
    # Each crash consumes one armed fault, so this budget never escalates.
    sup = ShardSupervisor(svc, max_restarts=armed + 1)
    drive(svc, requests, plan, supervisor=sup)
    sup.close()
    (kernel,) = svc.kernels.values()
    unfired = len(kernel.journal.storage.fail_at)  # popped as faults fire
    svc.close()
    ref_path = tmp_path / "ref.jsonl"
    ref = ChargingService(make_chargers(), config=CONFIG,
                          journal_path=ref_path, journal_sync=False)
    drive(ref, requests, plan)
    ref.journal.close()
    path = tmp_path / "faulty" / "shard-0000.jsonl"
    assert path.read_bytes() == ref_path.read_bytes()
    assert svc.metrics_snapshot() == ref.metrics_snapshot()
    assert svc.final_schedule() == ref.final_schedule()
    # Every crash fires exactly one armed fault: each failure and each
    # failed restart attempt is one crash, and every failure ends in
    # exactly one successful recovery.
    stats = sup.stats
    assert stats["failures"] + stats["restarts"] - stats["recoveries"] == armed - unfired
    assert stats["recoveries"] == stats["failures"]
    assert stats["escalations"] == 0
    # Every journaled record is intact: longest-prefix read sees no tear.
    records, torn, *_ = Journal.read(path)
    assert not torn and records
