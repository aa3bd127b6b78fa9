"""Router tests: deterministic spatial routing and the quote ceiling.

Satellite properties pinned here:

- routing is a pure function of ``(request, partition, availability)`` —
  hypothesis drives random device positions and shard layouts and asserts
  two independently built routers agree route-for-route;
- an exact quote tie between candidate shards breaks toward the lower
  shard id (mirrored-charger construction);
- the admission quote remains a price ceiling after cross-shard
  admission: a border device admitted to a non-owner shard under churn
  is never charged more than it was quoted.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Device
from repro.errors import ServiceError
from repro.geometry import Field, Point
from repro.service import IncrementalPlanner, ServiceConfig, generate_requests
from repro.service.plan import PlanInstance
from repro.service.request import ChargingRequest, RequestState
from repro.shard import GridPartition, ShardedService, SpatialRouter
from repro.wpt import Charger

FIELD = Field(100.0, 100.0)


def make_request(rid, x, y, demand=20e3):
    return ChargingRequest(
        request_id=rid,
        device=Device(
            device_id=f"dev-{rid}", position=Point(x, y),
            demand=demand, moving_rate=0.05,
        ),
        submitted_at=0.0,
    )


def make_router(halo=10.0, planner_order=(0, 1, 2, 3)):
    """A 2x2 partition with one charger per cell, planners installed in
    *planner_order* — routing must not care about dict insertion order."""
    part = GridPartition(FIELD, 4, halo=halo)
    positions = {0: (25.0, 25.0), 1: (75.0, 25.0), 2: (25.0, 75.0), 3: (75.0, 75.0)}
    planners = {}
    for sid in planner_order:
        x, y = positions[sid]
        planners[sid] = IncrementalPlanner(
            [Charger(charger_id=f"c{sid}", position=Point(x, y))]
        )
    return SpatialRouter(part, planners)


class TestRoutingDeterminism:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        x=st.floats(0.0, 100.0, allow_nan=False),
        y=st.floats(0.0, 100.0, allow_nan=False),
        halo=st.floats(0.0, 25.0, allow_nan=False),
    )
    def test_two_fresh_routers_agree(self, x, y, halo):
        req = make_request("r0", x, y)
        assert make_router(halo).route(req) == make_router(halo).route(req)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        x=st.floats(0.0, 100.0, allow_nan=False),
        y=st.floats(0.0, 100.0, allow_nan=False),
        order=st.permutations([0, 1, 2, 3]),
    )
    def test_planner_insertion_order_is_irrelevant(self, x, y, order):
        req = make_request("r0", x, y)
        assert make_router(planner_order=tuple(order)).route(req) == (
            make_router().route(req)
        )

    def test_route_is_sticky(self):
        router = make_router()
        req = make_request("r0", 50.0, 50.0)
        sid = router.route(req)
        # Degrade the winner; the sticky assignment must hold anyway.
        router.planners[sid].fail_charger(0)
        assert router.route(req) == sid
        assert router.shard_of("r0") == sid
        assert router.shard_of("never-seen") is None

    def test_interior_device_never_quotes(self):
        router = make_router(halo=5.0)
        # Deep inside cell 0 — one candidate, so the route must not
        # depend on any planner's availability.
        for planner in router.planners.values():
            planner.fail_charger(0)
        assert router.route(make_request("r0", 10.0, 10.0)) == 0


class TestTieBreaks:
    def test_exact_tie_goes_to_lower_shard(self):
        # Chargers mirrored about the x=50 midline; a device on the
        # midline is equidistant, identical tariffs → identical quotes.
        router = make_router(halo=10.0)
        req = make_request("mid", 50.0, 25.0)
        q0 = router.planners[0].quote(req.device)[0]
        q1 = router.planners[1].quote(req.device)[0]
        assert q0 == q1
        assert router.route(req) == 0

    def test_cheaper_candidate_wins_regardless_of_id(self):
        router = make_router(halo=10.0)
        req = make_request("near1", 58.0, 25.0)  # border, closer to c1
        assert router.route(req) == 1

    def test_all_candidates_down_routes_to_lowest(self):
        router = make_router(halo=10.0)
        router.planners[0].fail_charger(0)
        router.planners[1].fail_charger(0)
        req = make_request("down", 50.0, 25.0)
        assert router.route(req) == 0  # that kernel rejects charger_failed

    def test_empty_router_rejected(self):
        with pytest.raises(ServiceError):
            SpatialRouter(GridPartition(FIELD, 4), {})


class TestQuoteCeilingAcrossShards:
    def test_cross_shard_admission_respects_quote_ceiling(self):
        # Border devices under charger churn: whatever shard a device is
        # admitted to, its realized cost never exceeds its quote (plus
        # the planner tolerance) — the paper's price-ceiling contract,
        # now across the router.
        chargers = [
            Charger(charger_id="c0", position=Point(25.0, 25.0)),
            Charger(charger_id="c1", position=Point(75.0, 25.0)),
            Charger(charger_id="c2", position=Point(25.0, 75.0)),
            Charger(charger_id="c3", position=Point(75.0, 75.0)),
        ]
        svc = ShardedService(
            chargers, n_shards=4, field=FIELD, halo=30.0,
            config=ServiceConfig(epoch=60.0, window=120.0),
        )
        reqs = generate_requests(
            12, rate=0.05, deadline_slack=4000.0, max_price_factor=1.5, rng=7
        )
        for k, req in enumerate(reqs):
            svc.submit(req)
            if k == 3:
                svc.fail_charger("c1")
            if k == 6:
                svc.fail_charger("c3")
            if k == 9:
                svc.restore_charger("c1")
        svc.drain()

        cross_shard = 0
        for sid, kernel in svc.kernels.items():
            tol = kernel.planner.tol
            for rid, record in kernel.requests.items():
                assert record.state in RequestState.TERMINAL
                if record.realized_cost is not None and record.quote is not None:
                    assert record.realized_cost <= record.quote + tol, (
                        f"{rid} on shard {sid} charged {record.realized_cost} "
                        f"over quote {record.quote}"
                    )
                owner = svc.partition.cell_of(record.request.device.position)
                if owner != sid:
                    cross_shard += 1
        # The wide halo must actually have exercised cross-shard admission.
        assert cross_shard > 0


class TestPricedOnce:
    """A device is priced once per shard that quotes it, never again at
    admission: the router hands the chosen shard's quote rows to that
    shard's kernel."""

    @staticmethod
    def _chargers():
        return [
            Charger(charger_id=f"c{sid}", position=Point(x, y))
            for sid, (x, y) in enumerate(
                ((25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0))
            )
        ]

    def _service(self):
        return ShardedService(
            self._chargers(), n_shards=4, field=FIELD, halo=10.0,
            config=ServiceConfig(epoch=60.0, window=120.0),
        )

    def _count_quote_rows(self, monkeypatch):
        calls = []
        raw = PlanInstance.quote_rows

        def counted(instance, device):
            calls.append(device.device_id)
            return raw(instance, device)

        monkeypatch.setattr(PlanInstance, "quote_rows", counted)
        return calls

    def test_border_request_priced_once_per_live_candidate(self, monkeypatch):
        svc = self._service()
        calls = self._count_quote_rows(monkeypatch)
        corner = make_request("corner", 49.0, 51.0)
        assert len(svc.partition.candidate_shards(corner.device.position)) == 4
        assert svc.submit(corner) == RequestState.ADMITTED
        assert calls == ["dev-corner"] * 4

        svc.mark_shard_down(3)
        edge = make_request("edge", 45.0, 30.0)  # candidates 0 and 1
        assert svc.partition.candidate_shards(edge.device.position) == [0, 1]
        del calls[:]
        svc.submit(edge)
        assert calls == ["dev-edge"] * 2
        del calls[:]
        down_corner = make_request("corner2", 51.0, 49.0)
        svc.submit(down_corner)
        assert calls == ["dev-corner2"] * 3  # shard 3 is down: not quoted

    def test_interior_request_priced_once(self, monkeypatch):
        svc = self._service()
        calls = self._count_quote_rows(monkeypatch)
        inner = make_request("inner", 20.0, 20.0)
        assert svc.partition.is_interior(inner.device.position)
        assert svc.submit(inner) == RequestState.ADMITTED
        assert calls == ["dev-inner"]
        # An idempotent re-submit routes by the sticky map and prices nothing.
        svc.submit(inner)
        assert calls == ["dev-inner"]

    def test_handed_rows_keep_the_journal(self, tmp_path):
        # Border-heavy stream: the journals must match a service whose
        # kernels price every admission themselves.
        reqs = generate_requests(40, rate=0.2, rng=3)

        def run(root, hand_rows):
            svc = ShardedService(
                self._chargers(), n_shards=4, field=FIELD, halo=30.0,
                config=ServiceConfig(epoch=60.0, window=120.0), journal_dir=root,
            )
            for req in reqs:
                if hand_rows:
                    svc.submit(req)
                else:
                    sid = svc.router.route(req)
                    svc.kernels[sid].submit(req)
            svc.drain()
            svc.close()
            return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

        assert run(tmp_path / "handed", True) == run(tmp_path / "own", False)
