"""Self-healing shard tests: supervisor failover, degraded routing,
facade lifecycle, and supervised chaos convergence.

The contract under test (docs/RECOVERY.md):

1. **Failover**: a shard kernel death — clean or torn — heals through
   the supervisor's backoff/recover/re-feed loop; the run converges
   byte-identical (schedule and metrics) to a fault-free run with zero
   operator calls.
2. **Backoff**: logical, seed-derived, a pure function of
   ``(seed, shard, attempt)`` — never a wall-clock sleep.
3. **Escalation**: past the restart budget the shard is marked down and
   the router degrades: interior requests get typed
   ``rejected.shard_unavailable`` answers, border devices re-route to
   the cheapest surviving candidate, sticky assignments to a down shard
   raise rather than silently reassign.
4. **Lifecycle**: ``close()`` is idempotent; recovering a *live* journal
   directory is a typed :class:`~repro.errors.LiveJournalError`; a
   missing/corrupt/version-skewed manifest is a typed
   :class:`~repro.errors.RecoveryError`.
5. **Replayability**: the supervision journal is byte-identical across
   runs of the same timeline + plan + seed.
"""

from __future__ import annotations

import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    JournalWriteError,
    LiveJournalError,
    RecoveryError,
    ServiceError,
    ShardUnavailableError,
)
from repro.faults import FaultPlan, FaultyStorage, drive
from repro.faults.plan import SUPERVISOR_KINDS, FaultEvent
from repro.geometry import Field, Point
from repro.service import RequestState, ServiceConfig, generate_requests
from repro.shard import ShardedService, ShardSupervisor
from repro.shard.service import MANIFEST_NAME
from repro.shard.supervisor import SUPERVISOR_JOURNAL_NAME
from repro.wpt import Charger

FIELD = Field(100.0, 100.0)
CONFIG = ServiceConfig(epoch=30.0, window=120.0)


def make_chargers():
    return [
        Charger(charger_id="c0", position=Point(25.0, 25.0)),
        Charger(charger_id="c1", position=Point(75.0, 25.0)),
        Charger(charger_id="c2", position=Point(25.0, 75.0)),
        Charger(charger_id="c3", position=Point(75.0, 75.0)),
    ]


def make_stream(n=30, seed=7):
    return generate_requests(
        n, rate=0.2, deadline_slack=900.0, max_price_factor=1.3, rng=seed
    )


def make_service(journal_dir, n_shards=4, halo=0.0, **kw):
    return ShardedService(
        make_chargers(),
        n_shards=n_shards,
        field=FIELD,
        halo=halo,
        config=CONFIG,
        journal_dir=journal_dir,
        **kw,
    )


def reference_run(requests, plan=None, n_shards=4, halo=0.0, **kw):
    """The fault-free (kernel faults only, no shard chaos) baseline."""
    if plan is not None:
        plan = FaultPlan([
            e for e in plan.events
            if e.kind not in SUPERVISOR_KINDS and e.kind != "recovery_crash"
        ])
    service = ShardedService(
        make_chargers(), n_shards=n_shards, field=FIELD, halo=halo,
        config=CONFIG, journal_dir=None, **kw,
    )
    return drive(service, requests, plan)


class TestBackoff:
    def test_pure_function_of_seed_shard_attempt(self, tmp_path):
        svc = make_service(tmp_path / "a")
        sup1 = ShardSupervisor(svc, seed=11)
        sup2 = ShardSupervisor(svc, seed=11)
        sup3 = ShardSupervisor(svc, seed=12)
        series1 = [sup1.backoff(2, a) for a in range(1, 6)]
        series2 = [sup2.backoff(2, a) for a in range(1, 6)]
        series3 = [sup3.backoff(2, a) for a in range(1, 6)]
        assert series1 == series2
        assert series1 != series3
        assert sup1.backoff(1, 1) != sup1.backoff(2, 1)
        sup1.close(), sup2.close(), sup3.close()
        svc.close()

    def test_exponential_and_capped(self, tmp_path):
        svc = make_service(tmp_path / "b")
        sup = ShardSupervisor(svc, seed=3)
        # 1, 2, 4, ... seconds: the cap of 60 bites from attempt 7.
        for attempt in range(1, 10):
            pause = sup.backoff(0, attempt)
            base = min(60.0, 2.0 ** (attempt - 1))
            assert 0.5 * base <= pause < 1.5 * base
        sup.close()
        svc.close()

    def test_validation(self, tmp_path):
        svc = make_service(tmp_path / "c")
        with pytest.raises(ConfigurationError):
            ShardSupervisor(svc, max_restarts=0)
        with pytest.raises(ConfigurationError):
            ShardSupervisor(svc, seed=-1)
        sup = ShardSupervisor(svc)
        with pytest.raises(ConfigurationError):
            sup.backoff(0, 0)
        sup.close()
        svc.close()


def journal_fault_plan(*faults):
    return FaultPlan([
        FaultEvent(t=0.0, kind=kind, target=str(target), mode=mode)
        for kind, target, mode in faults
    ])


class TestArmJournalFaults:
    """``arm`` puts journal write faults on a one-kernel facade's live
    journal and recovery journals, and refuses them anywhere else."""

    def test_adopt_keeps_appending_where_the_journal_left_off(self, tmp_path):
        svc = make_service(tmp_path / "svc", n_shards=1, journal_sync=False)
        (kernel,) = svc.kernels.values()
        seq = kernel.journal.seq
        kernel.journal.storage = FaultyStorage(kernel.journal.storage, {seq + 1: "enospc"})
        kernel.journal.append("drain", 0.0, {})
        with pytest.raises(JournalWriteError):
            kernel.journal.append("drain", 0.0, {})
        assert kernel.journal.storage.fired == [(seq + 1, "enospc")]
        svc.close()
        lines = (tmp_path / "svc" / "shard-0000.jsonl").read_bytes().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == list(range(seq + 1))

    @pytest.mark.parametrize("n_shards,faults,match", [
        (4, [("journal_write", 5, "torn")], "per-kernel"),
        (1, [("journal_write", 0, "enospc")], "already written"),
        (1, [("journal_write", 5, "torn"), ("recovery_crash", 0, None)], "both"),
    ])
    def test_refuses_what_it_cannot_arm(self, tmp_path, n_shards, faults, match):
        svc = make_service(tmp_path / "svc", n_shards=n_shards, journal_sync=False)
        with ShardSupervisor(svc) as sup, pytest.raises(ConfigurationError, match=match):
            sup.arm(journal_fault_plan(*faults))
        svc.close()

    def test_refuses_a_journal_less_facade(self):
        svc = make_service(None, n_shards=1)
        with pytest.raises(ConfigurationError, match="need a journal"):
            ShardSupervisor(svc).arm(journal_fault_plan(("journal_write", 5, "torn")))


class TestFailover:
    @pytest.mark.parametrize("torn", [False, True])
    def test_kill_heals_byte_identical(self, tmp_path, torn):
        requests = make_stream()
        ref = reference_run(requests)
        svc = make_service(tmp_path / "svc")
        sup = ShardSupervisor(svc, seed=5)
        half = len(requests) // 2
        for r in requests[:half]:
            sup.call("submit", r)
        assert sup.kill_shard(1, torn=torn) is True
        for r in requests[half:]:
            sup.call("submit", r)
        sup.call("drain")
        assert sup.stats["failures"] == 1
        assert sup.stats["recoveries"] == 1
        assert sup.stats["escalations"] == 0
        assert svc.shards_down() == []
        assert svc.final_schedule() == ref.final_schedule()
        assert svc.metrics_snapshot() == ref.metrics_snapshot()
        sup.close()
        svc.close()

    def test_crash_loop_escalates_then_operator_reset_recovers(self, tmp_path):
        requests = make_stream()
        svc = make_service(tmp_path / "svc")
        # Arm three recovery crashes against a budget of two: the
        # supervisor must escalate, and the shared crash list must keep
        # the third crash armed for the operator's reset.
        sup = ShardSupervisor(svc, seed=5, max_restarts=2)
        sup.arm(FaultPlan([
            FaultEvent(t=0.0, kind="recovery_crash", target="1", count=3),
        ]))
        for r in requests:
            sup.call("submit", r)
        assert sup.kill_shard(1) is False
        assert sup.stats["escalations"] == 1
        assert svc.shards_down() == [1]
        # Reset: one crash left, budget of two -> second attempt lands.
        assert sup.reset_shard(1) is True
        assert svc.shards_down() == []
        assert not sup.recovery_crashes[1]
        sup.call("drain")
        ref = reference_run(requests)
        assert svc.final_schedule() == ref.final_schedule()
        assert svc.metrics_snapshot() == ref.metrics_snapshot()
        sup.close()
        svc.close()

    @pytest.mark.recovery_smoke
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("mode", ["enospc", "torn"])
    def test_crashed_recovery_attempts_close_their_journal(self, tmp_path, mode):
        # Each crashed attempt opened the shard journal; an unclosed file
        # found by the collector below would fail the test.
        svc = make_service(tmp_path / "svc")
        sup = ShardSupervisor(svc, seed=5)
        sup.arm(FaultPlan([
            FaultEvent(t=0.0, kind="recovery_crash", target="1", count=2, mode=mode),
        ]))
        for r in make_stream(20):
            sup.call("submit", r)
        assert sup.kill_shard(1) is True
        assert sup.stats["restarts"] == 2 + 1
        gc.collect()
        sup.close()
        svc.close()

    @pytest.mark.parametrize("snapshot_every", [None, 10])
    def test_recovery_crash_fires_on_a_compacted_journal(
        self, tmp_path, snapshot_every
    ):
        # A snapshot recovery writes from the journal's base seq up, far
        # past seq 2 once compaction ran; both crashes must still fire.
        requests = make_stream(60)
        svc = make_service(tmp_path / "svc", snapshot_every=snapshot_every)
        sup = ShardSupervisor(svc, seed=5)
        sup.arm(FaultPlan([
            FaultEvent(t=0.0, kind="recovery_crash", target="1", count=2),
        ]))
        for r in requests[:45]:
            sup.call("submit", r)
        compacted = svc.kernels[1].journal.base_seq > 2
        assert compacted == (snapshot_every is not None)
        assert sup.kill_shard(1) is True
        for r in requests[45:]:
            sup.call("submit", r)
        sup.call("drain")
        assert sup.stats["failures"] == 1
        assert sup.stats["restarts"] == 3
        assert sup.stats["recoveries"] == 1
        ref = reference_run(requests, snapshot_every=snapshot_every)
        assert svc.final_schedule() == ref.final_schedule()
        assert svc.metrics_snapshot() == ref.metrics_snapshot()
        sup.close()
        svc.close()

    def test_supervision_journal_is_byte_stable(self, tmp_path):
        requests = make_stream(20)
        horizon = requests[-1].submitted_at + 600.0
        plan = FaultPlan.generate(9, n_shards=4, horizon=horizon, journal_faults=0)
        raws = []
        for tag in ("one", "two"):
            svc = make_service(tmp_path / tag, snapshot_every=15)
            sup = ShardSupervisor(svc, seed=9)
            drive(svc, requests, plan, supervisor=sup)
            sup.close()
            svc.close()
            raws.append((tmp_path / tag / SUPERVISOR_JOURNAL_NAME).read_bytes())
        assert raws[0] == raws[1]
        assert raws[0]  # chaos actually landed something


class TestDegradedRouting:
    def test_interior_requests_get_typed_rejections(self, tmp_path):
        requests = make_stream()
        svc = make_service(tmp_path / "svc")
        svc.mark_shard_down(0)
        rejected = 0
        for r in requests:
            state = svc.submit(r)
            owner = svc.partition.cell_of(r.device.position)
            if owner == 0:
                assert state == RequestState.REJECTED
                rejected += 1
            else:
                assert state != RequestState.REJECTED
        assert rejected > 0
        ops = svc.ops.snapshot(operational=True)["counters"]
        assert ops["rejected.shard_unavailable"] == rejected
        assert ops["rejected.shard_unavailable.unrouted"] == rejected
        assert svc.counts()["rejected"] == rejected
        svc.close()

    def test_rejection_is_sticky_even_after_mark_up(self, tmp_path):
        requests = make_stream()
        svc = make_service(tmp_path / "svc")
        svc.mark_shard_down(0)
        victim = next(
            r for r in requests
            if svc.partition.cell_of(r.device.position) == 0
        )
        assert svc.submit(victim) == RequestState.REJECTED
        svc.mark_shard_up(0)
        # The rejection was the service's answer; resubmission cannot
        # quietly un-reject it.
        assert svc.submit(victim) == RequestState.REJECTED
        assert svc.request_state(victim.request_id) == RequestState.REJECTED
        svc.close()

    def test_border_devices_reroute_to_surviving_candidate(self, tmp_path):
        requests = make_stream()
        # A halo as wide as the field makes every device a border device
        # with all four shards as candidates.
        svc = make_service(tmp_path / "svc", halo=100.0)
        svc.mark_shard_down(0)
        for r in requests:
            assert svc.submit(r) != RequestState.REJECTED
            assert svc.router.shard_of(r.request_id) != 0
        ops = svc.ops.snapshot(operational=True)["counters"]
        assert ops["rejected.shard_unavailable"] == 0
        svc.close()

    def test_sticky_assignment_to_down_shard_raises(self, tmp_path):
        requests = make_stream()
        svc = make_service(tmp_path / "svc")
        routed = next(
            r for r in requests
            if svc.partition.cell_of(r.device.position) == 1
        )
        assert svc.submit(routed) != RequestState.REJECTED
        svc.mark_shard_down(1)
        with pytest.raises(ShardUnavailableError):
            svc.router.route(routed)
        # The facade converts that into a typed sticky rejection...
        assert svc.submit(routed) == RequestState.REJECTED
        ops = svc.ops.snapshot(operational=True)["counters"]
        assert ops["rejected.shard_unavailable.sticky"] == 1
        # ...but the assignment itself survives the outage.
        svc.mark_shard_up(1)
        assert svc.router.shard_of(routed.request_id) == 1
        svc.close()

    def test_advance_skips_down_shards_and_inputs_drop(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        for r in make_stream():
            svc.submit(r)
        svc.mark_shard_down(2)
        before = svc.kernels[2].clock.now
        svc.advance(500.0)
        assert svc.kernels[2].clock.now == before
        owner = next(
            c.charger_id for c in make_chargers()
            if svc.partition.cell_of(c.position) == 2
        )
        assert svc.fail_charger(owner, at=500.0) is False
        ops = svc.ops.snapshot(operational=True)["counters"]
        assert ops["inputs.dropped_shard_down"] == 1
        svc.close()

    def test_mark_down_unknown_shard_raises(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        with pytest.raises(ServiceError):
            svc.mark_shard_down(99)
        svc.close()


class TestFacadeLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        for r in make_stream(10):
            svc.submit(r)
        svc.drain()
        svc.close()
        svc.close()

    def test_recovering_a_live_journal_dir_is_typed(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        for r in make_stream(10):
            svc.submit(r)
        svc.drain()
        with pytest.raises(LiveJournalError):
            ShardedService.recover(tmp_path / "svc", make_chargers(), config=CONFIG)
        svc.close()
        rec = ShardedService.recover(tmp_path / "svc", make_chargers(), config=CONFIG)
        assert rec.final_schedule() == svc.final_schedule()
        rec.close()

    def test_a_fresh_service_refuses_a_live_journal_dir(self, tmp_path):
        svc = make_service(tmp_path / "svc")
        for r in make_stream(10):
            svc.submit(r)
        before = {p.name: p.read_bytes() for p in (tmp_path / "svc").iterdir()}
        with pytest.raises(LiveJournalError):
            make_service(tmp_path / "svc")
        after = {p.name: p.read_bytes() for p in (tmp_path / "svc").iterdir()}
        assert after == before
        svc.close()
        make_service(tmp_path / "svc").close()

    @pytest.mark.parametrize("change", ["extra", "moved"])
    def test_recover_checks_the_manifest_against_the_chargers(self, tmp_path, change):
        # An added charger, or one moved into another cell, no longer
        # partitions as the manifest says: a typed error before any
        # replay, with every file as it was.
        svc = make_service(tmp_path / "svc")
        for r in make_stream(20):
            svc.submit(r)
        svc.close()
        chargers = make_chargers()
        if change == "extra":
            chargers.append(Charger(charger_id="c4", position=Point(10.0, 10.0)))
        else:
            chargers[0] = Charger(charger_id="c0", position=Point(75.0, 30.0))
        before = {p.name: p.read_bytes() for p in (tmp_path / "svc").iterdir()}
        with pytest.raises(RecoveryError, match="does not match"):
            ShardedService.recover(tmp_path / "svc", chargers, config=CONFIG)
        after = {p.name: p.read_bytes() for p in (tmp_path / "svc").iterdir()}
        assert after == before

    @pytest.mark.parametrize("defect", ["missing", "corrupt", "schema"])
    def test_bad_manifest_is_a_typed_recovery_error(self, tmp_path, defect):
        svc = make_service(tmp_path / "svc")
        for r in make_stream(10):
            svc.submit(r)
        svc.drain()
        svc.close()
        manifest = tmp_path / "svc" / MANIFEST_NAME
        if defect == "missing":
            manifest.unlink()
        elif defect == "corrupt":
            manifest.write_text("{oops")
        else:
            doc = json.loads(manifest.read_text())
            doc["schema"] = 99
            manifest.write_text(json.dumps(doc))
        with pytest.raises(RecoveryError):
            ShardedService.recover(tmp_path / "svc", make_chargers(), config=CONFIG)

    def test_missing_shard_journal_is_a_typed_recovery_error(self, tmp_path):
        # Under a published manifest a charger-owning shard's journal
        # always exists, so a missing one is loss, never an empty shard.
        svc = make_service(tmp_path / "svc")
        for r in make_stream(40):
            svc.submit(r)
        svc.drain()
        svc.close()
        lost = tmp_path / "svc" / "shard-0001.jsonl"
        lost.unlink()
        before = sorted(p.name for p in (tmp_path / "svc").iterdir())
        with pytest.raises(RecoveryError, match="shard 1") as info:
            ShardedService.recover(tmp_path / "svc", make_chargers(), config=CONFIG)
        assert str(lost) in str(info.value)
        assert not lost.exists()
        assert sorted(p.name for p in (tmp_path / "svc").iterdir()) == before

    def test_shard_journal_deleted_under_a_running_service(self, tmp_path):
        # The supervisor's heal path goes through the single-kernel
        # recovery, which refuses a missing journal: the loss surfaces as
        # a typed error instead of healing into an empty shard.
        svc = make_service(tmp_path / "svc")
        sup = ShardSupervisor(svc, seed=3)
        for r in make_stream(20):
            sup.apply(("submit", r.submitted_at, r))
        lost = tmp_path / "svc" / "shard-0001.jsonl"
        lost.unlink()
        before = sorted(p.name for p in lost.parent.iterdir())
        with pytest.raises(RecoveryError) as info:
            sup.kill_shard(1)
        assert str(lost) in str(info.value)
        assert not lost.exists()
        assert sorted(p.name for p in lost.parent.iterdir()) == before
        svc.close()


def run_supervised_case(tmp_path, stream_seed, chaos_seed, n=25, tag="chaos",
                        extra=()):
    """One supervised chaos run + its fault-free reference; assert
    byte-identical convergence with zero escalations.  *extra* events
    join the generated plan."""
    requests = make_stream(n, seed=stream_seed)
    horizon = requests[-1].submitted_at + 600.0
    plan = FaultPlan.generate(chaos_seed, n_shards=4, horizon=horizon, journal_faults=0)
    plan = FaultPlan(list(plan.events) + list(extra))
    svc = make_service(tmp_path / f"{tag}-{stream_seed}-{chaos_seed}",
                       snapshot_every=15)
    sup = ShardSupervisor(svc, seed=chaos_seed)
    drive(svc, requests, plan, supervisor=sup)
    stats = sup.stats
    ref = reference_run(requests, plan)
    assert sup.stats["escalations"] == 0
    assert svc.shards_down() == []
    assert svc.final_schedule() == ref.final_schedule()
    assert svc.metrics_snapshot() == ref.metrics_snapshot()
    sup.close()
    svc.close()
    return stats, sup.stats


@pytest.mark.recovery_smoke
class TestSupervisedChaosSmoke:
    def test_converges_byte_identical_with_zero_operator_calls(self, tmp_path):
        # Seed 3 mixes torn + clean kills, snapshot corruption and a
        # crash mid-snapshot-write (see FaultPlan.generate's shard chaos);
        # the recovery of killed shard 1 crash-loops twice on top.
        crash_loop = FaultEvent(
            t=0.0, kind="recovery_crash", target="1", count=2, mode="torn"
        )
        chaos_stats, sup_stats = run_supervised_case(
            tmp_path, 7, 3, extra=[crash_loop]
        )
        assert chaos_stats["kills"] > 0
        assert sup_stats["recoveries"] == sup_stats["failures"] > 0
        assert sup_stats["restarts"] > sup_stats["failures"]


class TestSupervisedChaos:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_seed=st.integers(0, 10_000), chaos_seed=st.integers(0, 10_000))
    def test_supervised_chaos_converges(self, stream_seed, chaos_seed,
                                        tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("supchaos")
        run_supervised_case(tmp_path, stream_seed, chaos_seed, n=15)

    @pytest.mark.chaos
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_seed=st.integers(0, 1_000_000),
           chaos_seed=st.integers(0, 1_000_000),
           n=st.integers(10, 30))
    def test_supervised_chaos_converges_heavy(self, stream_seed, chaos_seed, n,
                                              tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("supchaos")
        run_supervised_case(tmp_path, stream_seed, chaos_seed, n=n, tag="heavy")
