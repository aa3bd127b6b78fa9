"""Tests for the growable plan layer: the instance facade, the mutable
coalition structure, and — critically — the *incrementality* of the
replanner (bounded per-request work, zero full re-solves)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CCSInstance, Device
from repro.core.costsharing import EgalitarianSharing, ProportionalSharing
from repro.geometry import Point
from repro.service import GrowableCoalitionStructure, IncrementalPlanner, PlanInstance
from repro.wpt import Charger


def make_chargers(capacity=None):
    return [
        Charger(charger_id="c0", position=Point(10.0, 10.0), capacity=capacity),
        Charger(charger_id="c1", position=Point(90.0, 90.0), capacity=capacity),
        Charger(charger_id="c2", position=Point(50.0, 50.0), capacity=capacity),
    ]


def device(k, x, y, demand=20e3):
    return Device(device_id=f"d{k}", position=Point(x, y), demand=demand)


def spread_devices(n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 100.0, size=n)
    ys = rng.uniform(0.0, 100.0, size=n)
    ds = rng.uniform(10e3, 40e3, size=n)
    return [device(k, float(x), float(y), float(d)) for k, (x, y, d) in enumerate(zip(xs, ys, ds))]


class TestPlanInstance:
    def test_matches_ccsinstance_surface(self):
        chargers = make_chargers()
        devices = spread_devices(12, seed=4)
        plan = PlanInstance(chargers)
        for d in devices:
            plan.add_device(d)
        ref = CCSInstance(devices=devices, chargers=chargers, mobility=plan.mobility)
        np.testing.assert_allclose(
            plan.singleton_cost_matrix(), ref.singleton_cost_matrix()
        )
        np.testing.assert_allclose(
            plan.singleton_price_matrix(), ref.singleton_price_matrix()
        )
        group = [0, 3, 7]
        for j in range(plan.n_chargers):
            assert plan.group_cost(group, j) == pytest.approx(ref.group_cost(group, j))
            assert plan.charging_price(group, j) == pytest.approx(
                ref.charging_price(group, j)
            )
        assert plan.total_demand(group) == pytest.approx(ref.total_demand(group))

    def test_buffers_grow_past_initial_capacity(self):
        plan = PlanInstance(make_chargers())
        devices = spread_devices(50, seed=1)
        for d in devices:
            plan.add_device(d)
        assert plan.n_devices == 50
        assert plan.singleton_cost_matrix().shape == (50, 3)

    def test_best_singleton_picks_cheapest(self):
        plan = PlanInstance(make_chargers())
        cost, j = plan.best_singleton(device(0, 12.0, 12.0))
        assert j == 0
        row_cost = plan.quote_rows(device(0, 12.0, 12.0))
        assert cost == pytest.approx(float((row_cost[0] + row_cost[1]).min()))


class TestGrowableStructure:
    def make(self, n=6, capacity=None):
        plan = PlanInstance(make_chargers(capacity))
        st = GrowableCoalitionStructure(plan, EgalitarianSharing())
        for d in spread_devices(n, seed=9):
            st.register_device(plan.add_device(d))
        return plan, st

    def test_place_remove_retire_keep_invariants(self):
        plan, st = self.make(6)
        st.place(0, None, 0)
        st.place(1, None, 0)
        c = st.coalition_of(0)
        st.place(2, c.cid, 0)
        st.check_invariants()
        st.remove(1)
        st.check_invariants()
        st.retire(st.coalition_of(0).cid)
        st.check_invariants()
        assert not st.is_placed(0) and not st.is_placed(2)

    def test_place_respects_capacity(self):
        plan, st = self.make(3, capacity=1)
        st.place(0, None, 0)
        cid = st.coalition_of(0).cid
        with pytest.raises(ValueError):
            st.place(1, cid, 0)

    def test_double_place_rejected(self):
        plan, st = self.make(2)
        st.place(0, None, 0)
        with pytest.raises(ValueError):
            st.place(0, None, 1)

    def test_remove_empties_coalition(self):
        plan, st = self.make(2)
        st.place(0, None, 2)
        cid = st.coalition_of(0).cid
        st.remove(0)
        assert cid not in st._coalitions
        st.check_invariants()


class TestIncrementalPlanner:
    def test_fold_satisfies_quotes(self):
        planner = IncrementalPlanner(make_chargers())
        indices = []
        for d in spread_devices(20, seed=2):
            cost, _ = planner.quote(d)
            indices.append(planner.add(d, ceiling=cost))
        planner.fold(indices)
        planner.structure.check_invariants()
        for i in planner.active_indices():
            assert planner.individual_cost(i) <= planner.ceiling[i] + 1e-9

    def test_remove_repairs_survivors(self):
        planner = IncrementalPlanner(make_chargers())
        batch = []
        for d in spread_devices(10, seed=6):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        planner.remove(batch[0])
        planner.structure.check_invariants()
        for i in planner.active_indices():
            assert planner.individual_cost(i) <= planner.ceiling[i] + 1e-9

    def test_retire_returns_full_accounting(self):
        planner = IncrementalPlanner(make_chargers())
        batch = []
        for d in spread_devices(6, seed=3):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        cid = planner.live_cids()[0]
        info = planner.retire(cid)
        assert set(info) == {"charger", "members", "price", "demands", "shares", "moving"}
        assert sorted(info["shares"]) == info["members"]
        assert sum(info["shares"].values()) == pytest.approx(info["price"])
        planner.structure.check_invariants()

    def test_capacity_one_forces_singletons(self):
        # Capacity bounds *session size*, not sessions per charger: with
        # capacity 1 nobody can ever join, so every fold lands every
        # device in its own singleton at exactly its quote.
        planner = IncrementalPlanner(make_chargers(capacity=1))
        batch = []
        for d in spread_devices(6, seed=8):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        assert planner.structure.n_coalitions == 6
        for i in planner.active_indices():
            assert planner.individual_cost(i) == pytest.approx(planner.ceiling[i])


class TestIncrementality:
    """The tentpole acceptance criterion: per-request replanning work is
    bounded by the *live* plan size, never by the history length, and no
    code path ever re-solves from scratch."""

    def test_full_solves_is_structurally_zero(self):
        planner = IncrementalPlanner(make_chargers())
        for d in spread_devices(30, seed=12):
            cost, _ = planner.quote(d)
            planner.fold([planner.add(d, ceiling=cost)])
        assert planner.ops["full_solves"] == 0

    def test_per_request_candidate_work_stays_bounded(self):
        # Feed requests one fold at a time while *retiring* sessions so
        # the live plan stays at O(K) devices — the steady state of a
        # long-running service.  If insertion, improvement, or repair
        # scanned history rather than the live plan, per-request
        # candidate counts would grow linearly over the run; with the
        # live plan bounded they must stay flat.
        planner = IncrementalPlanner(make_chargers())
        devices = spread_devices(120, seed=5)
        per_request = []
        for d in devices:
            before = (
                planner.ops["insert_candidates"] + planner.ops["scan_candidates"]
            )
            cost, _ = planner.quote(d)
            planner.fold([planner.add(d, ceiling=cost)])
            per_request.append(
                planner.ops["insert_candidates"]
                + planner.ops["scan_candidates"]
                - before
            )
            while len(planner.active_indices()) > 12:
                planner.retire(planner.live_cids()[0])
        early = sum(per_request[10:30]) / 20.0
        late = sum(per_request[100:120]) / 20.0
        # Work per request must not trend upward with history (allow 50%
        # noise headroom; an O(history) regression would be ~4x).
        assert late <= early * 1.5 + 5.0
        assert planner.ops["full_solves"] == 0

    def test_fold_batch_work_scales_with_batch_and_plan(self):
        planner = IncrementalPlanner(make_chargers())
        batch = []
        for d in spread_devices(25, seed=7):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        live = planner.structure.n_coalitions + planner.instance.n_chargers
        # Insertion: one candidate per (live coalition or charger) per
        # inserted device — crude upper bound with the plan at final size.
        assert planner.ops["insert_candidates"] <= 25 * (25 + 3)
        assert planner.ops["full_solves"] == 0
        assert live >= 1


class TestDirtyRepair:
    """Repair rechecks only what changed, and finds the same violators.

    The structure records the coalitions it writes
    (``take_dirty``); the planner's violator check reads their members
    plus the previous check's violators.  It must return exactly what a
    scan of every placed device returns, including a violator that the
    last repair left in place (a proportional singleton an ulp above its
    quote at ``tol=0``).
    """

    def test_structure_reports_written_coalitions_once(self):
        plan = PlanInstance(make_chargers())
        st = GrowableCoalitionStructure(plan, EgalitarianSharing())
        for d in spread_devices(4, seed=2):
            st.register_device(plan.add_device(d))
        a = st.place(0, None, 0).cid
        b = st.place(1, None, 1).cid
        st.place(2, a, 0)
        assert st.take_dirty() == {a, b}
        assert st.take_dirty() == set()
        st.move(1, a, 0)  # b dies: only a is live and written
        assert st.take_dirty() == {a}
        c = st.place(3, None, 2).cid
        st.retire(c)
        assert st.take_dirty() == set()

    @staticmethod
    def _checked(monkeypatch):
        """Make every violator check also run the full scan it replaces."""
        seen = []
        check = IncrementalPlanner._violators

        def compared(planner):
            got = check(planner)
            st = planner.structure
            full = [
                d for d in planner.active_indices()
                if st.individual_cost(d) > planner.ceiling[d] + planner.tol
            ]
            assert got == full
            seen.append(got)
            return got

        monkeypatch.setattr(IncrementalPlanner, "_violators", compared)
        return seen

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_lingering_violator_is_rechecked(self, monkeypatch, engine):
        seen = self._checked(monkeypatch)
        # One slot per charger: nobody can join the lone device.
        chargers = [
            Charger(
                charger_id=f"c{j}", position=Point(20.0 + 60 * j, 20.0 + 60 * j),
                capacity=1,
            )
            for j in range(2)
        ]
        planner = IncrementalPlanner(
            chargers, scheme=ProportionalSharing(), tol=0.0, engine=engine
        )
        # Alone at its quote charger, this device's proportional share
        # (price * d / d) rounds one ulp above the price, so its cost
        # exceeds its quote and no move can fix it.
        lone = Device(
            "lone", Point(74.18019946425606, 75.36688171196079),
            demand=23955.416146884505,
        )
        quote, _ = planner.quote(lone)
        first = planner.add(lone, quote)
        planner.fold([first])
        assert planner.individual_cost(first) > quote
        assert seen[-1] == [first]
        # Later folds and removals write other coalitions only; the
        # lingering device must stay on every check's list.
        for k, d in enumerate(spread_devices(6, seed=3)):
            cost, _ = planner.quote(d)
            index = planner.add(d, cost)
            planner.fold([index])
            assert first in seen[-1]
            if k % 2:
                planner.remove(index)
                assert first in seen[-1]

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_dirty_checks_match_full_scans_through_faults(self, monkeypatch, engine):
        seen = self._checked(monkeypatch)
        rng = np.random.default_rng(11)
        chargers = [
            Charger(
                charger_id=f"c{j}",
                position=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
                capacity=2,
            )
            for j in range(4)
        ]
        planner = IncrementalPlanner(
            chargers, scheme=ProportionalSharing(), tol=0.0, engine=engine
        )
        evicted = []
        for step in range(40):
            batch = []
            for d in spread_devices(int(rng.integers(1, 6)), seed=100 + step):
                d = Device(f"s{step}-{d.device_id}", d.position, d.demand)
                cost, _ = planner.quote(d)  # one charger always stays up
                batch.append(planner.add(d, cost))
            evicted += planner.fold(batch)[1]
            placed = planner.active_indices()
            if placed and rng.random() < 0.5:
                evicted += planner.remove(placed[int(rng.integers(len(placed)))])
            if planner.live_cids() and rng.random() < 0.3:
                planner.retire(planner.live_cids()[0])
            j = int(rng.integers(len(chargers)))
            if rng.random() < 0.2 and len(planner.available_chargers()) > 1:
                planner.fail_charger(j)
                planner.evacuate_charger(j)
            elif not planner.is_available(j):
                planner.restore_charger(j)
        assert len(seen) > 40
        assert any(seen), "the walk never produced a violator"
        assert evicted, "the walk never evicted a device"
