"""Shard-level fault injection: kill one kernel, the service keeps serving.

The acceptance property (ISSUE 8): a run that kills and recovers
individual shards — cleanly or with a torn journal tail — converges
byte-identical (per-shard journal bytes, merged metrics, merged
schedule) to a fault-free run of the same timeline, and the surviving
shards' journals are never touched by another shard's death.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, drive
from repro.faults.plan import FaultEvent
from repro.geometry import Field, Point
from repro.service import ServiceConfig, generate_requests
from repro.shard import ShardedService, ShardSupervisor, shard_journal_name
from repro.wpt import Charger

FIELD = Field(100.0, 100.0)
CONFIG = ServiceConfig(epoch=60.0, window=120.0)


def make_chargers():
    return [
        Charger(charger_id="c0", position=Point(25.0, 25.0)),
        Charger(charger_id="c1", position=Point(75.0, 25.0)),
        Charger(charger_id="c2", position=Point(25.0, 75.0)),
        Charger(charger_id="c3", position=Point(75.0, 75.0)),
    ]


def make_stream(seed, n=16):
    return generate_requests(
        n, rate=0.1, deadline_slack=2000.0, max_price_factor=1.5, rng=seed
    )


def kill_stats(supervisor):
    """The kill tally out of the supervisor's stats."""
    return {k: supervisor.stats[k] for k in ("kills", "torn_kills", "skipped_kills")}


def run_to_journals(tmp_path, tag, stream, plan):
    svc = ShardedService(
        make_chargers(), n_shards=4, field=FIELD, halo=10.0, config=CONFIG,
        journal_dir=tmp_path / tag, journal_sync=False,
    )
    with ShardSupervisor(svc) as sup:
        drive(
            svc, stream, plan, supervisor=sup,
            advance_to=stream[-1].submitted_at + 300.0,
        )
    stats = kill_stats(sup)
    svc.close()
    journals = {
        sid: (tmp_path / tag / shard_journal_name(sid)).read_bytes()
        for sid in svc.kernels
    }
    return svc, stats, journals


def kill_events(plan):
    return [e for e in plan if e.kind == "shard_kill"]


def kill_plan(kernel_plan, kills):
    """*kernel_plan*'s events plus explicit shard_kill events."""
    events = list(kernel_plan) + [
        FaultEvent(t=t, kind="shard_kill", target=str(sid), mode=mode)
        for sid, t, mode in kills
    ]
    return FaultPlan(events)


class TestShardKillConvergence:
    @pytest.mark.parametrize(
        "kills",
        [
            [(1, 900.0, None)],                                # one clean kill
            [(2, 700.0, "torn")],                              # one torn kill
            [(0, 500.0, None), (3, 1500.0, "torn"),
             (1, 2500.0, "torn")],                             # mixed barrage
        ],
    )
    def test_converges_byte_identical_to_fault_free(self, tmp_path, kills):
        stream = make_stream(4)
        base = FaultPlan.generate(
            13,
            charger_ids=[c.charger_id for c in make_chargers()],
            requests=stream,
            outage_prob=0.5,
            cancel_prob=0.15,
            no_show_prob=0.05,
            journal_faults=0,  # per-kernel; a 4-shard supervisor refuses them
        )
        ref, ref_stats, ref_journals = run_to_journals(
            tmp_path, "ref", stream, base
        )
        assert ref_stats["kills"] == 0

        chaos, stats, journals = run_to_journals(
            tmp_path, "chaos", stream, kill_plan(base, kills)
        )
        assert stats["kills"] == len(kills)
        assert stats["torn_kills"] == sum(1 for _, _, m in kills if m == "torn")
        assert journals == ref_journals
        assert chaos.final_schedule() == ref.final_schedule()
        assert chaos.metrics_snapshot() == ref.metrics_snapshot()

    def test_killing_one_shard_leaves_others_bytes_untouched(self, tmp_path):
        stream = make_stream(8)
        svc = ShardedService(
            make_chargers(), n_shards=4, field=FIELD, config=CONFIG,
            journal_dir=tmp_path / "live", journal_sync=False,
        )
        half = len(stream) // 2
        for r in stream[:half]:
            svc.submit(r)
        before = {
            sid: (tmp_path / "live" / shard_journal_name(sid)).read_bytes()
            for sid in svc.kernels
        }
        survivor_ids = [sid for sid in svc.kernels if sid != 1]
        svc.recover_shard(1)
        after = {
            sid: (tmp_path / "live" / shard_journal_name(sid)).read_bytes()
            for sid in svc.kernels
        }
        for sid in survivor_ids:
            assert after[sid] == before[sid]
        # The recovered shard keeps accepting its share of the stream.
        for r in stream[half:]:
            svc.submit(r)
        svc.drain()
        svc.close()
        assert sum(svc.counts().values()) == len(stream)

    def test_kill_against_empty_shard_is_skipped(self, tmp_path):
        stream = make_stream(2, n=6)
        chargers = [Charger(charger_id="c0", position=Point(25.0, 25.0))]
        svc = ShardedService(
            chargers, n_shards=4, field=FIELD, config=CONFIG,
            journal_dir=tmp_path / "sparse", journal_sync=False,
        )
        plan = kill_plan(FaultPlan(), [(3, 100.0, None)])  # no kernel there
        with ShardSupervisor(svc) as sup:
            drive(svc, stream, plan, supervisor=sup)
        stats = kill_stats(sup)
        svc.close()
        assert stats == {"kills": 0, "torn_kills": 0, "skipped_kills": 1}

    def test_chaos_plan_without_supervisor_is_a_typed_error(self, tmp_path):
        # Only a supervisor can kill and heal a shard; driving a kill
        # without one must fail loudly, not run a different plan.
        stream = make_stream(4)
        svc = ShardedService(
            make_chargers(), n_shards=4, field=FIELD, config=CONFIG,
            journal_dir=tmp_path / "unsupervised", journal_sync=False,
        )
        with pytest.raises(ConfigurationError, match="ShardSupervisor"):
            drive(svc, stream, kill_plan(FaultPlan(), [(1, 900.0, None)]))
        svc.close()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_seed=st.integers(0, 10_000),
           kill_shard=st.integers(0, 3),
           frac=st.floats(0.1, 0.9),
           torn=st.booleans())
    def test_random_kill_points_converge(self, stream_seed, kill_shard, frac,
                                         torn, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("shardchaos")
        stream = make_stream(stream_seed, n=12)
        t_kill = frac * stream[-1].submitted_at
        _, _, ref_journals = run_to_journals(tmp_path, "ref", stream, FaultPlan())
        mode = "torn" if torn else None
        chaos, stats, journals = run_to_journals(
            tmp_path, "chaos", stream,
            kill_plan(FaultPlan(), [(kill_shard, t_kill, mode)]),
        )
        assert stats["kills"] == 1
        assert journals == ref_journals


class TestShardKillPlans:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate_supervised(7, 8, horizon=1000.0)
        b = FaultPlan.generate_supervised(7, 8, horizon=1000.0)
        assert a == b
        for e in kill_events(a):
            assert e.kind == "shard_kill"
            assert 0 <= int(e.target) < 8
            assert 0.0 <= e.t < 1000.0

    def test_keyed_kills_stable_under_shard_count(self):
        # Shard s's fate is a pure function of (seed, s): growing the
        # count never reshuffles the shards both counts share.
        small = {(e.kind, e.target): e for e in
                 FaultPlan.generate_supervised(3, 4, horizon=500.0)}
        large = {(e.kind, e.target): e for e in
                 FaultPlan.generate_supervised(3, 16, horizon=500.0)}
        for target, event in small.items():
            assert target in large
            assert large[target].t == event.t
            assert large[target].mode == event.mode

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.generate_supervised(0, 0, horizon=10.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate_supervised(0, 2, horizon=-1.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(t=0.0, kind="shard_kill", target="1", mode="sideways")

    def test_shard_kills_are_not_kernel_events(self):
        plan = FaultPlan.generate_supervised(1, 8, horizon=100.0)
        assert kill_events(plan)
        assert plan.kernel_events() == []
