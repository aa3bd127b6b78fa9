"""The degenerate-case guarantee: one shard IS the unsharded service.

``ShardedService(n_shards=1)`` must be byte-identical — journal bytes,
metrics snapshot, final schedule — to a plain ``ChargingService`` over
the same chargers and input stream, including under kernel fault plans.
This is the contract that makes ``--shards`` safe to default on.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, drive
from repro.geometry import Point
from repro.service import ChargingService, ServiceConfig, generate_requests
from repro.shard import ShardedService, shard_journal_name
from repro.wpt import Charger

CHARGERS = [
    Charger(charger_id="c0", position=Point(25.0, 25.0)),
    Charger(charger_id="c1", position=Point(75.0, 75.0)),
]
CONFIG = ServiceConfig(epoch=60.0, window=120.0)


def fresh_chargers():
    return [
        Charger(charger_id="c0", position=Point(25.0, 25.0)),
        Charger(charger_id="c1", position=Point(75.0, 75.0)),
    ]


@pytest.fixture(scope="module")
def stream():
    # The recovery-suite fixture stream, reused so the identity claim
    # covers exactly the inputs the durability tests pin.
    return generate_requests(
        30, rate=0.25, deadline_slack=900.0, max_price_factor=1.3, rng=21
    )


class TestOneShardByteIdentity:
    def test_plain_stream(self, tmp_path, stream):
        ref = ChargingService(
            fresh_chargers(), config=CONFIG, journal_path=tmp_path / "ref.jsonl"
        )
        for r in stream:
            ref.submit(r)
        ref.advance(stream[-1].submitted_at + 300.0)
        ref.drain()
        ref.journal.close()

        svc = ShardedService(
            fresh_chargers(), n_shards=1, config=CONFIG,
            journal_dir=tmp_path / "sharded",
        )
        for r in stream:
            svc.submit(r)
        svc.advance(stream[-1].submitted_at + 300.0)
        svc.drain()
        svc.close()

        shard_journal = tmp_path / "sharded" / shard_journal_name(0)
        assert shard_journal.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        assert svc.final_schedule() == ref.final_schedule()
        assert svc.metrics_snapshot() == ref.metrics_snapshot()
        assert svc.counts() == ref.counts()

    @pytest.mark.parametrize("fault_seed", [3, 17])
    def test_under_kernel_fault_plans(self, tmp_path, stream, fault_seed):
        plan = FaultPlan.generate(
            fault_seed,
            charger_ids=[c.charger_id for c in CHARGERS],
            requests=stream,
            outage_prob=0.7,
            cancel_prob=0.2,
            no_show_prob=0.1,
        )
        ref = ChargingService(
            fresh_chargers(), config=CONFIG,
            journal_path=tmp_path / f"ref-{fault_seed}.jsonl", journal_sync=False,
        )
        drive(ref, stream, plan)
        ref.journal.close()

        sharded_dir = tmp_path / f"sharded-{fault_seed}"
        svc = ShardedService(
            fresh_chargers(), n_shards=1, config=CONFIG,
            journal_dir=sharded_dir, journal_sync=False,
        )
        drive(svc, stream, plan)
        svc.close()

        assert (sharded_dir / shard_journal_name(0)).read_bytes() == (
            (tmp_path / f"ref-{fault_seed}.jsonl").read_bytes()
        )
        assert svc.final_schedule() == ref.final_schedule()
        assert svc.metrics_snapshot() == ref.metrics_snapshot()

    def test_one_shard_schedule_has_no_shard_key(self, stream):
        # At n=1 the facade must not decorate sessions — byte identity
        # extends to the schedule documents themselves.
        svc = ShardedService(fresh_chargers(), n_shards=1, config=CONFIG)
        for r in stream:
            svc.submit(r)
        svc.drain()
        schedule = svc.final_schedule()
        assert schedule and all("shard" not in s for s in schedule)

    def test_halo_cannot_break_single_shard_identity(self, stream):
        # With one cell every device is interior no matter the halo.
        a = ShardedService(fresh_chargers(), n_shards=1, halo=50.0, config=CONFIG)
        b = ChargingService(fresh_chargers(), config=CONFIG)
        for r in stream:
            a.submit(r)
            b.submit(r)
        a.drain()
        b.drain()
        assert a.final_schedule() == b.final_schedule()
        assert a.metrics_snapshot() == b.metrics_snapshot()
