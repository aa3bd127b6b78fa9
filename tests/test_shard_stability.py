"""Shard-count stability: interior devices cannot tell 2 shards from 4.

Satellite 2's regression target.  With a clustered workload (whole
clusters inside 4-grid quadrants), quadrant-local chargers, and *keyed*
request/fault streams — every draw a pure function of ``(seed, entity)``
— re-partitioning the field from 2 shards to 4 must leave every
interior device's outcome (terminal state, quote, realized cost)
unchanged: its owner cell shrinks, but its spatial neighborhood, its
randomness, and its faults are identical.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, drive
from repro.geometry import Field, Point
from repro.service import (
    ServiceConfig,
    generate_clustered_requests,
    generate_keyed_requests,
)
from repro.shard import ShardedService
from repro.wpt import Charger

FIELD = Field(100.0, 100.0)
CONFIG = ServiceConfig(epoch=60.0, window=120.0)
CENTERS = [(25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0)]


def make_chargers():
    return [
        Charger(charger_id=f"c{k}", position=Point(x, y))
        for k, (x, y) in enumerate(CENTERS)
    ]


def make_stream(seed=2, n=20):
    # moving_rate=50 makes cross-quadrant travel (>= ~34 m) cost far more
    # than any coalition saving, so the workload genuinely decomposes: no
    # device would ever profitably group outside its own cluster.  That
    # is the stability *condition* (docs/SHARDING.md) — at the default
    # near-free movement, a merged cell groups across clusters and
    # realized costs legitimately differ between shard counts.
    return generate_clustered_requests(
        n, rate=0.1, seed=seed, centers=CENTERS, radius=8.0, field=FIELD,
        deadline_slack=2000.0, max_price_factor=1.5, moving_rate=50.0,
    )


def outcomes(n_shards, stream, plan):
    svc = ShardedService(
        make_chargers(), n_shards=n_shards, field=FIELD, halo=5.0,
        config=CONFIG,
    )
    drive(svc, stream, plan, advance_to=stream[-1].submitted_at + 300.0)
    out = {}
    for kernel in svc.kernels.values():
        for rid, record in kernel.requests.items():
            out[rid] = (record.state, record.quote, record.realized_cost)
    return out


class TestInteriorOutcomeStability:
    @pytest.mark.parametrize("fault_seed", [1, 5])
    def test_two_to_four_shards_same_outcomes(self, fault_seed):
        stream = make_stream()
        plan = FaultPlan.generate_keyed(
            fault_seed,
            requests=stream,
            cancel_prob=0.2,
            no_show_prob=0.1,
        )
        assert outcomes(2, stream, plan) == outcomes(4, stream, plan)

    def test_one_to_four_shards_same_outcomes_without_faults(self):
        stream = make_stream(seed=6)
        a = outcomes(1, stream, FaultPlan())
        b = outcomes(4, stream, FaultPlan())
        assert a == b


class TestKeyedStreamStability:
    def test_keyed_requests_are_prefix_stable(self):
        # Request k is a pure function of (seed, k): asking for more
        # requests never perturbs the ones already drawn.
        short = generate_keyed_requests(10, rate=0.2, seed=9, field=FIELD)
        long = generate_keyed_requests(25, rate=0.2, seed=9, field=FIELD)
        assert [r.to_dict() for r in short] == [r.to_dict() for r in long[:10]]

    def test_clustered_requests_stay_in_their_disc(self):
        stream = make_stream(seed=3, n=40)
        for k, req in enumerate(stream):
            cx, cy = CENTERS[k % len(CENTERS)]
            dx = req.device.position.x - cx
            dy = req.device.position.y - cy
            assert dx * dx + dy * dy <= 8.0**2 + 1e-9

    def test_keyed_fault_plan_restricts_cleanly(self):
        # The whole-field keyed plan, filtered to one shard's entities,
        # IS the plan generated for that shard alone — the property that
        # makes per-shard fault streams independent of the partition.
        stream = make_stream(seed=2)
        chargers = make_chargers()
        full = FaultPlan.generate_keyed(
            11,
            charger_ids=[c.charger_id for c in chargers],
            requests=stream,
            horizon=3000.0,
            outage_prob=0.6,
            cancel_prob=0.2,
            no_show_prob=0.1,
        )
        quadrant_requests = [
            r for k, r in enumerate(stream) if k % len(CENTERS) == 0
        ]
        sub = FaultPlan.generate_keyed(
            11,
            charger_ids=["c0"],
            requests=quadrant_requests,
            horizon=3000.0,
            outage_prob=0.6,
            cancel_prob=0.2,
            no_show_prob=0.1,
        )
        keep_requests = {r.request_id for r in quadrant_requests}
        filtered = [
            e for e in full
            if (e.kind in ("charger_down", "charger_up") and e.target == "c0")
            or (e.kind in ("cancel", "no_show") and e.target in keep_requests)
        ]
        assert sorted(filtered, key=lambda e: e.sort_key()) == (
            sorted(sub, key=lambda e: e.sort_key())
        )
