"""Vector pricing: bit-identical to the scalar path, and done once per request.

Two contracts:

1. **Bit identity.**  :class:`~repro.wpt.vector.ChargerPriceTable`
   (``prices``, ``singleton_price_matrix``, ``singleton_price_row``),
   the service plan's row builders (``PlanInstance.quote_rows`` /
   ``add_devices``), and the batch ``CCSInstance`` matrices priced by the
   same shared routine give exactly the floats of the scalar path
   (``Charger.price_for_stored``, ``mobility.moving_cost``) — for the
   closed-form tariffs, at exponent 1 and 0.5 where numpy takes special
   paths, and for the per-charger / per-pair fallbacks.  Floats are
   compared as bytes, never with ``==``.
2. **Bounded pricing work.**  A request is priced once: at admission.
   The fold reuses the admission rows, and a snapshot restore prices all
   of its devices in one matrix call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CCSInstance, Device
from repro.errors import ServiceError
from repro.geometry import Point
from repro.mobility import LinearMobility, QuadraticMobility
from repro.service import ChargingService, ServiceConfig, generate_requests
from repro.service.plan import PlanInstance
from repro.wpt import (
    Charger,
    ChargerPriceTable,
    LinearTariff,
    PiecewiseConcaveTariff,
    PowerLawTariff,
)


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    b = np.ascontiguousarray(np.asarray(b, dtype=float))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


exponents = st.one_of(
    st.just(1.0),
    st.just(0.5),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
money = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
tariffs = st.one_of(
    st.builds(
        PowerLawTariff,
        base=money,
        unit=st.floats(min_value=1e-3, max_value=5.0),
        exponent=exponents,
    ),
    st.builds(LinearTariff, base=money, unit=st.floats(min_value=0.0, max_value=5.0)),
    # No closed form: the per-charger fallback path.
    st.just(PiecewiseConcaveTariff(5.0, (100.0, 1000.0), (3.0, 2.0, 1.0))),
)
#: A coarse grid, so equal distances (and so exact ties) are common.
coords = st.sampled_from([0.0, 10.0, 20.0, 35.5])


@st.composite
def charger_sets(draw, sizes=(1, 2, 16)):
    m = draw(st.sampled_from(sizes))
    return [
        Charger(
            charger_id=f"c{j}",
            position=Point(draw(coords), draw(coords)),
            tariff=draw(tariffs),
            efficiency=draw(st.floats(min_value=0.05, max_value=1.0)),
        )
        for j in range(m)
    ]


@st.composite
def device_lists(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    return [
        Device(
            device_id=f"d{i}",
            position=Point(draw(coords), draw(coords)),
            demand=draw(st.floats(min_value=1e-3, max_value=1e5)),
            moving_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        for i in range(n)
    ]


mobilities = st.one_of(
    st.just(LinearMobility()),
    # No matrix hook: the per-pair fallback path.
    st.builds(QuadraticMobility, curvature=st.floats(min_value=0.0, max_value=0.01)),
)


class TestPriceTableBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(
        chargers=charger_sets(),
        totals=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e5)),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_prices_match_price_for_stored(self, chargers, totals, data):
        idx = data.draw(
            st.lists(
                st.integers(0, len(chargers) - 1),
                min_size=len(totals),
                max_size=len(totals),
            )
        )
        got = ChargerPriceTable(chargers).prices(np.array(totals), np.array(idx))
        want = [chargers[j].price_for_stored(t) for t, j in zip(totals, idx)]
        assert same_bits(got, want)

    @settings(max_examples=80, deadline=None)
    @given(
        chargers=charger_sets(),
        totals=st.lists(
            st.floats(min_value=1e-3, max_value=1e5), min_size=1, max_size=40
        ),
        data=st.data(),
    )
    def test_one_charger_column_matches_price_for_stored(self, chargers, totals, data):
        j = data.draw(st.integers(0, len(chargers) - 1))
        table = ChargerPriceTable(chargers)
        got = table.charger_prices(np.array(totals), j)
        assert same_bits(got, [chargers[j].price_for_stored(t) for t in totals])
        assert same_bits(got, table.prices(np.array(totals), np.full(len(totals), j)))

    @settings(max_examples=80, deadline=None)
    @given(
        chargers=charger_sets(),
        demands=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e5)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_singleton_matrix_and_row_match_price_for_stored(self, chargers, demands):
        table = ChargerPriceTable(chargers)
        want = [[c.price_for_stored(d) for c in chargers] for d in demands]
        assert same_bits(table.singleton_price_matrix(np.array(demands)), want)
        for d, row in zip(demands, want):
            assert same_bits(table.singleton_price_row(d), row)

    def test_half_exponent_uses_the_scalar_power(self):
        # np.power with an exponent *array* rounds a few percent of these
        # differently from the scalar path at exponent 0.5.
        chargers = [
            Charger("a", Point(0.0, 0.0), tariff=PowerLawTariff(10.0, 1.0, 0.5)),
            Charger("b", Point(0.0, 0.0), tariff=PowerLawTariff(10.0, 1.0, 0.8)),
        ]
        rng = np.random.default_rng(5)
        totals = rng.uniform(0.0, 1e4, 5000)
        idx = rng.integers(0, 2, totals.size)
        got = ChargerPriceTable(chargers).prices(totals, idx)
        want = [chargers[j].price_for_stored(float(t)) for t, j in zip(totals, idx)]
        assert same_bits(got, want)

    def test_negative_demands_are_rejected(self):
        table = ChargerPriceTable([Charger("a", Point(0.0, 0.0))])
        with pytest.raises(ValueError):
            table.singleton_price_row(-1.0)
        with pytest.raises(ValueError):
            table.singleton_price_matrix(np.array([1.0, -1.0]))


class TestPlanRowsBitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(chargers=charger_sets(), devices=device_lists(), mobility=mobilities)
    def test_rows_match_the_scalar_path(self, chargers, devices, mobility):
        plan = PlanInstance(chargers, mobility)
        want_move = [
            [mobility.moving_cost(d.position, c.position, d.moving_rate) for c in chargers]
            for d in devices
        ]
        want_price = [[c.price_for_stored(d.demand) for c in chargers] for d in devices]
        for d, move, price in zip(devices, want_move, want_price):
            got_move, got_price = plan.quote_rows(d)
            assert same_bits(got_move, move)
            assert same_bits(got_price, price)
        plan.add_devices(devices)
        assert same_bits(plan._moving_cost, want_move)
        assert same_bits(plan.singleton_price_matrix(), want_price)
        # The batch instance prices its rows through the same routine.
        batch = CCSInstance(devices, chargers, mobility, strict=False)
        assert same_bits(batch._moving_cost, plan._moving_cost)
        assert same_bits(batch.singleton_price_matrix(), plan.singleton_price_matrix())
        assert same_bits(batch.singleton_cost_matrix(), plan.singleton_cost_matrix())

    @settings(max_examples=40, deadline=None)
    @given(chargers=charger_sets(), devices=device_lists(max_size=40), mobility=mobilities)
    def test_restore_matrix_equals_one_row_per_device(self, chargers, devices, mobility):
        one_by_one = PlanInstance(chargers, mobility)
        for d in devices:
            one_by_one.add_device(d)
        at_once = PlanInstance(chargers, mobility)
        assert list(at_once.add_devices(devices)) == list(range(len(devices)))
        for name in ("moving_cost", "singleton_price", "singleton_cost"):
            assert same_bits(
                getattr(at_once, f"_{name}"), getattr(one_by_one, f"_{name}")
            )
        assert at_once._demand_list == one_by_one._demand_list
        assert at_once._device_index == one_by_one._device_index

    @settings(max_examples=80, deadline=None)
    @given(
        chargers=charger_sets(sizes=(1, 2, 16)),
        devices=device_lists(max_size=3),
        mobility=mobilities,
        data=st.data(),
    )
    def test_best_singleton_tie_break_under_outages(self, chargers, devices, mobility, data):
        plan = PlanInstance(chargers, mobility)
        up = data.draw(
            st.lists(st.booleans(), min_size=len(chargers), max_size=len(chargers))
        )
        for j, flag in enumerate(up):
            plan.set_available(j, flag)
        admitting = [j for j, c in enumerate(chargers) if up[j] and c.admits(1)]
        for d in devices:
            costs = [
                mobility.moving_cost(d.position, c.position, d.moving_rate)
                + c.price_for_stored(d.demand)
                for c in chargers
            ]
            if not admitting:
                with pytest.raises(ServiceError):
                    plan.best_singleton(d)
                continue
            j = min(admitting, key=lambda k: (costs[k], k))
            cost, got = plan.best_singleton(d)
            assert got == j
            assert same_bits(cost, costs[j])

    def test_ties_go_to_the_lower_available_charger(self):
        twins = [
            Charger(f"c{j}", Point(10.0, 0.0) if j else Point(50.0, 50.0))
            for j in range(4)
        ]
        plan = PlanInstance(twins)
        device = Device("d", Point(0.0, 0.0), demand=100.0)
        assert plan.best_singleton(device)[1] == 1
        plan.set_available(1, False)
        assert plan.best_singleton(device)[1] == 2
        plan.set_available(2, False)
        plan.set_available(3, False)
        assert plan.best_singleton(device)[1] == 0
        plan.set_available(0, False)
        with pytest.raises(ServiceError):
            plan.best_singleton(device)
        plan.set_available(3, True)
        assert plan.best_singleton(device)[1] == 3


CHARGERS = [
    Charger(charger_id="c0", position=Point(25.0, 25.0)),
    Charger(charger_id="c1", position=Point(75.0, 75.0)),
    Charger(charger_id="c2", position=Point(75.0, 25.0)),
]
CONFIG = ServiceConfig(epoch=60.0, window=120.0)


@pytest.fixture
def counted(monkeypatch):
    """Count the plan's row builders and every scalar pricing call."""
    calls = {"quote_rows": 0, "add_devices": 0, "price_for_stored": 0, "moving_cost": 0}

    def counter(owner, name):
        raw = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return raw(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counter(PlanInstance, "quote_rows")
    counter(PlanInstance, "add_devices")
    counter(Charger, "price_for_stored")
    counter(LinearMobility, "moving_cost")
    return calls


class TestPricingWorkIsBounded:
    def test_submit_fold_depart_price_once(self, counted):
        svc = ChargingService(CHARGERS, config=CONFIG)
        request = generate_requests(1, rate=1.0, rng=4)[0]
        svc.submit(request)
        assert counted == {
            "quote_rows": 1, "add_devices": 0, "price_for_stored": 0, "moving_cost": 0,
        }
        svc.advance(request.submitted_at + CONFIG.epoch)  # the fold
        assert svc.request_state(request.request_id) == "grouped"
        svc.advance(request.submitted_at + 10 * CONFIG.window)  # the departure
        assert svc.request_state(request.request_id) in ("charging", "done")
        assert counted["quote_rows"] == 1
        assert counted["add_devices"] == 0
        assert counted["moving_cost"] == 0
        assert svc._queued_rows == {}

    def test_snapshot_restore_prices_all_devices_at_once(self, tmp_path, counted):
        path = tmp_path / "svc.jsonl"
        svc = ChargingService(CHARGERS, config=CONFIG, journal_path=path)
        reqs = generate_requests(25, rate=0.3, deadline_slack=900.0, rng=8)
        for r in reqs[:20]:
            svc.submit(r)
        svc.advance(reqs[19].submitted_at + CONFIG.epoch)
        for r in reqs[20:]:
            svc.submit(r)  # still queued at the snapshot
        queued = list(svc._queue)
        assert queued
        svc.write_snapshot()
        n = svc.planner.instance.n_devices
        assert n > 1
        live = svc.planner.instance
        svc.journal.close()

        counted.update(quote_rows=0, add_devices=0, moving_cost=0)
        rec = ChargingService.recover(path, CHARGERS, config=CONFIG)
        assert counted["add_devices"] == 1
        assert counted["quote_rows"] == 0
        assert counted["moving_cost"] == 0
        inst = rec.planner.instance
        assert inst.n_devices == n
        for name in ("_moving_cost", "_singleton_price", "_singleton_cost"):
            assert same_bits(getattr(inst, name), getattr(live, name))

        # The queued requests' admission rows were not snapshotted: their
        # fold prices them again, once each, to the same plan rows.
        rec.advance(reqs[-1].submitted_at + CONFIG.epoch)
        assert counted["quote_rows"] == len(queued)
        svc_ref = ChargingService(CHARGERS, config=CONFIG)
        for r in reqs[:20]:
            svc_ref.submit(r)
        svc_ref.advance(reqs[19].submitted_at + CONFIG.epoch)
        for r in reqs[20:]:
            svc_ref.submit(r)
        svc_ref.advance(reqs[-1].submitted_at + CONFIG.epoch)
        for name in ("_moving_cost", "_singleton_price", "_singleton_cost"):
            assert same_bits(
                getattr(rec.planner.instance, name),
                getattr(svc_ref.planner.instance, name),
            )
        assert rec.state()["planner"] == svc_ref.state()["planner"]
        rec.journal.close()
