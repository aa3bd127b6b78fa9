"""Sharded replay over the executor: serial == parallel == live facade."""

from __future__ import annotations

import pytest

from repro.experiments.exec import ParallelExecutor, SerialExecutor
from repro.faults import FaultPlan, drive
from repro.faults.plan import FaultEvent
from repro.geometry import Field, Point
from repro.service import ServiceConfig, generate_requests
from repro.shard import (
    GridPartition,
    ShardedService,
    ShardSupervisor,
    partition_timeline,
    replay_sharded,
)
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


def make_stream(n=20, seed=5):
    return generate_requests(
        n, rate=0.2, deadline_slack=900.0, max_price_factor=1.3, rng=seed
    )


def make_plan(stream, seed=9):
    return FaultPlan.generate(
        seed,
        charger_ids=[c.charger_id for c in make_chargers()],
        requests=stream,
        outage_prob=0.6,
        cancel_prob=0.15,
        no_show_prob=0.05,
    )


class TestPartitionTimeline:
    def test_every_submission_lands_exactly_once(self):
        stream = make_stream()
        part = GridPartition(FIELD, 4, halo=10.0)
        per_shard, assignment = partition_timeline(make_chargers(), stream, part)
        submitted = [
            item["request"]["id"]
            for items in per_shard.values()
            for item in items
            if item["op"] == "submit"
        ]
        assert sorted(submitted) == sorted(r.request_id for r in stream)
        assert set(assignment) == {r.request_id for r in stream}

    def test_fault_events_follow_ownership(self):
        stream = make_stream()
        plan = make_plan(stream)
        part = GridPartition(FIELD, 4, halo=10.0)
        per_shard, assignment = partition_timeline(
            make_chargers(), stream, part, plan=plan
        )
        for sid, items in per_shard.items():
            for item in items:
                if item["op"] != "fault":
                    continue
                event = item["event"]
                if event["kind"] in ("charger_down", "charger_up"):
                    assert event["target"] == f"c{sid}"
                else:
                    assert assignment[event["target"]] == sid


class TestExecutorEquivalence:
    @pytest.mark.parametrize("halo", [0.0, 15.0])
    def test_serial_equals_parallel_byte_identical(self, tmp_path, halo):
        stream = make_stream()
        plan = make_plan(stream)
        kwargs = dict(
            n_shards=4, field=FIELD, halo=halo, plan=plan, config=CONFIG,
            advance_to=stream[-1].submitted_at + 300.0,
        )
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_dir.mkdir()
        parallel_dir.mkdir()
        serial = replay_sharded(
            make_chargers(), stream, executor=SerialExecutor(),
            workdir=str(serial_dir), **kwargs
        )
        parallel = replay_sharded(
            make_chargers(), stream, executor=ParallelExecutor(jobs=2),
            workdir=str(parallel_dir), **kwargs
        )
        assert serial["schedule"] == parallel["schedule"]
        assert serial["metrics"] == parallel["metrics"]
        assert serial["counts"] == parallel["counts"]
        for sid in serial["shards"]:
            assert serial["shards"][sid]["journal"] == (
                parallel["shards"][sid]["journal"]
            )

    def test_replay_matches_live_facade(self):
        stream = make_stream()
        plan = make_plan(stream)
        advance_to = stream[-1].submitted_at + 300.0

        svc = ShardedService(
            make_chargers(), n_shards=4, field=FIELD, halo=15.0, config=CONFIG
        )
        drive(svc, stream, plan, advance_to=advance_to)

        replayed = replay_sharded(
            make_chargers(), stream, n_shards=4, field=FIELD, halo=15.0,
            plan=plan, config=CONFIG, advance_to=advance_to,
        )
        assert replayed["counts"] == svc.counts()
        assert replayed["schedule"] == svc.final_schedule()
        assert replayed["metrics"] == svc.metrics_snapshot()
        assert replayed["assignment"] == svc.router.assignment

    def test_replay_of_kill_plan_matches_supervised_run(self, tmp_path):
        # A healed kill converges to the fault-free run, so replaying a
        # plan with shard kills is replaying it without them.
        stream = make_stream()
        t_mid = stream[len(stream) // 2].submitted_at
        # kernel_events() drops make_plan's per-kernel journal fault,
        # which a 4-shard supervisor refuses to arm.
        plan = FaultPlan(make_plan(stream).kernel_events() + [
            FaultEvent(t=t_mid, kind="shard_kill", target="1", mode="torn"),
            FaultEvent(t=t_mid + 60.0, kind="shard_kill", target="2"),
        ])
        advance_to = stream[-1].submitted_at + 300.0

        svc = ShardedService(
            make_chargers(), n_shards=4, field=FIELD, halo=15.0, config=CONFIG,
            journal_dir=tmp_path / "live", journal_sync=False,
        )
        with ShardSupervisor(svc) as sup:
            drive(svc, stream, plan, supervisor=sup, advance_to=advance_to)
        assert sup.stats["kills"] == 2
        assert all(tag in ("submit", "fault") for tag, _t, _p in sup.history)

        replayed = replay_sharded(
            make_chargers(), stream, n_shards=4, field=FIELD, halo=15.0,
            plan=plan, config=CONFIG, advance_to=advance_to,
        )
        assert replayed["counts"] == svc.counts()
        assert replayed["schedule"] == svc.final_schedule()
        assert replayed["metrics"] == svc.metrics_snapshot()
        svc.close()
