"""Fast sharded-service smoke: the ``make shard-smoke`` gate.

Two checks, sized for CI seconds rather than minutes: a live 4-shard
facade that its own journal directory must recover exactly, and the
1-shard byte-identity spot check.  The full-depth versions live in
test_shard_service.py and test_shard_identity.py; this marker exists so
the sharding subsystem has a dedicated quick gate.
"""

from __future__ import annotations

import pytest

from repro.geometry import Field, Point
from repro.service import ChargingService, ServiceConfig, generate_requests
from repro.shard import ShardedService, shard_journal_name
from repro.wpt import Charger

FIELD = Field(100.0, 100.0)
CONFIG = ServiceConfig(epoch=60.0, window=120.0)


def quad_chargers():
    return [
        Charger(charger_id="c0", position=Point(25.0, 25.0)),
        Charger(charger_id="c1", position=Point(75.0, 25.0)),
        Charger(charger_id="c2", position=Point(25.0, 75.0)),
        Charger(charger_id="c3", position=Point(75.0, 75.0)),
    ]


@pytest.mark.shard_smoke
def test_four_shard_replay_matches_live(tmp_path):
    stream = generate_requests(
        12, rate=0.2, deadline_slack=900.0, max_price_factor=1.3, rng=31
    )
    svc = ShardedService(
        quad_chargers(), n_shards=4, field=FIELD, halo=10.0, config=CONFIG,
        journal_dir=tmp_path / "sharded", journal_sync=False,
    )
    for r in stream:
        svc.submit(r)
    svc.drain()
    svc.close()
    recovered = ShardedService.recover(
        tmp_path / "sharded", quad_chargers(), config=CONFIG, journal_sync=False
    )
    assert len(recovered.kernels) == 4
    assert recovered.counts() == svc.counts()
    assert recovered.final_schedule() == svc.final_schedule()
    assert recovered.metrics_snapshot() == svc.metrics_snapshot()
    recovered.close()


@pytest.mark.shard_smoke
def test_one_shard_byte_identity(tmp_path):
    stream = generate_requests(
        12, rate=0.2, deadline_slack=900.0, max_price_factor=1.3, rng=31
    )
    ref = ChargingService(
        quad_chargers(), config=CONFIG, journal_path=tmp_path / "ref.jsonl",
        journal_sync=False,
    )
    svc = ShardedService(
        quad_chargers(), n_shards=1, config=CONFIG,
        journal_dir=tmp_path / "sharded", journal_sync=False,
    )
    for r in stream:
        ref.submit(r)
        svc.submit(r)
    ref.drain()
    svc.drain()
    ref.journal.close()
    svc.close()
    assert (tmp_path / "sharded" / shard_journal_name(0)).read_bytes() == (
        (tmp_path / "ref.jsonl").read_bytes()
    )
    assert svc.final_schedule() == ref.final_schedule()
    assert svc.metrics_snapshot() == ref.metrics_snapshot()
