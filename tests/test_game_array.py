"""Object-vs-array engine equivalence: the bit-identity contract.

The array engine (:mod:`repro.game.arraycore`) promises to be
*observationally indistinguishable* from the object engine — not "close",
identical: the same switch sequence, the same schedule, the same total
cost to the last bit, the same Zobrist hash.  Four layers enforce it:

1. **Golden bit-identity**: on every ``ccsga_golden.json`` case x both
   schemes, the two engines produce exactly equal schedules, switch and
   sweep counts, Nash certificates, and *exactly* equal traces (no
   tolerance — ``==`` on floats).
2. **Hypothesis end-to-end fuzz**: random workloads, schemes, and rules;
   both engines run CCSGA to convergence and must agree exactly.
3. **Packed-row fuzz**: one live service structure is driven through
   random place / move / remove / retire steps and charger outages;
   after every step each placed device's one-row ``first_move`` and
   each unplaced device's one-device ``insert_batch`` must equal the
   object scans bitwise, and ``check_invariants`` audits every packed
   row against its coalition; a fold's batched insert must choose the
   object scan's placement at every step; and ``best_response_sweep`` must
   make a one-device loop's moves for every segment length.
4. **Engine-knob semantics**: resolution rules, the environment
   variable, unsupported-combination errors, and planner parity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Device, EgalitarianSharing, ProportionalSharing, ShapleySharing, ccsga
from repro.core.ccsga import resolve_engine
from repro.errors import ConfigurationError
from repro.game import (
    CoalitionStructure,
    SelfishSwitch,
    SociallyAwareSwitch,
    StructureArrayView,
    best_response_sweep,
    engine_supported,
    is_nash_equilibrium,
)
from repro.geometry import Point
from repro.io import instance_from_dict
from repro.service import GrowableCoalitionStructure, IncrementalPlanner
from repro.workloads import quick_instance
from repro.wpt import Charger, PowerLawTariff
from repro.wpt.pricing import _TariffBase

FIXTURES = Path(__file__).parent / "fixtures"

SCHEMES = {
    "egalitarian": EgalitarianSharing(),
    "proportional": ProportionalSharing(),
}

RULES = [SociallyAwareSwitch(), SelfishSwitch()]


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return instance_from_dict(json.load(fh))


def _golden():
    with open(FIXTURES / "ccsga_golden.json") as fh:
        return json.load(fh)


GOLDEN = _golden()


def _instance_for(case_name):
    if case_name.startswith("quick_"):
        spec, _ = case_name.split("/")
        parts = dict((kv[0], int(kv[1:])) for kv in spec.split("_")[1:])
        return quick_instance(
            n_devices=parts["n"], n_chargers=parts["m"], seed=parts["s"], capacity=6
        )
    return load_fixture(case_name.split("/")[0])


def assert_results_bit_identical(obj, arr):
    """Exact (no-tolerance) equality of two CCSGA results."""
    assert obj.schedule.sessions == arr.schedule.sessions
    assert obj.switches == arr.switches
    assert obj.sweeps == arr.sweeps
    assert obj.nash_certified == arr.nash_certified
    # Bit-identity: == on floats, deliberately not pytest.approx.
    assert list(obj.trace.values) == list(arr.trace.values)


# --------------------------------------------------------------------- #
# 1. golden bit-identity


@pytest.mark.parametrize("case", sorted(GOLDEN))
class TestGoldenBitIdentity:
    def test_engines_bit_identical_on_golden_case(self, case):
        instance = _instance_for(case)
        scheme = SCHEMES[case.rsplit("/", 1)[1]]
        obj = ccsga(instance, scheme=scheme, certify=True, engine="object")
        arr = ccsga(instance, scheme=scheme, certify=True, engine="array")
        assert obj.engine == "object" and arr.engine == "array"
        assert_results_bit_identical(obj, arr)
        # And the array engine still matches the recorded golden outputs.
        expected = GOLDEN[case]
        got_schedule = sorted(
            [s.charger, sorted(s.members)] for s in arr.schedule.sessions
        )
        assert got_schedule == expected["schedule"]
        assert arr.switches == expected["switches"]

    def test_array_certificate_holds_under_the_object_enumeration(self, case):
        # The array engine certifies with its last sweep's verdict; the
        # object engine's exhaustive enumeration must agree on its result.
        instance = _instance_for(case)
        scheme = SCHEMES[case.rsplit("/", 1)[1]]
        arr = ccsga(instance, scheme=scheme, certify=True, engine="array")
        assert arr.nash_certified
        structure = CoalitionStructure.from_schedule(instance, scheme, arr.schedule)
        assert is_nash_equilibrium(structure, SociallyAwareSwitch())


def test_array_certificate_adds_no_scan(monkeypatch):
    """``certify=True`` costs the array engine no kernel call."""
    calls = []
    first_move = StructureArrayView.first_move

    def counted(view, devices, rule):
        calls.append(len(devices))
        return first_move(view, devices, rule)

    monkeypatch.setattr(StructureArrayView, "first_move", counted)
    instance = quick_instance(n_devices=60, n_chargers=6, seed=2021, capacity=6)
    plain = ccsga(instance, certify=False, engine="array")
    uncertified = len(calls)
    calls.clear()
    certified = ccsga(instance, certify=True, engine="array")
    assert certified.nash_certified and not plain.nash_certified
    # Segments double while nobody moves: 64 calls for 50 switches in 2
    # sweeps, not one call per device per sweep.
    assert (certified.switches, certified.sweeps) == (50, 2)
    assert len(calls) == uncertified == 64


# --------------------------------------------------------------------- #
# 2. end-to-end hypothesis fuzz


class TestEndToEndEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=28),
        m=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        capacity=st.sampled_from([None, 2, 4, 8]),
        scheme_name=st.sampled_from(sorted(SCHEMES)),
        rule_idx=st.integers(min_value=0, max_value=1),
    )
    def test_engines_agree_exactly_on_random_workloads(
        self, n, m, seed, capacity, scheme_name, rule_idx
    ):
        instance = quick_instance(
            n_devices=n, n_chargers=m, seed=seed, capacity=capacity
        )
        scheme = SCHEMES[scheme_name]
        rule = RULES[rule_idx]
        try:
            obj = ccsga(instance, scheme=scheme, rule=rule, engine="object")
        except Exception as exc:  # selfish dynamics may legitimately cycle
            with pytest.raises(type(exc)):
                ccsga(instance, scheme=scheme, rule=rule, engine="array")
            return
        arr = ccsga(instance, scheme=scheme, rule=rule, engine="array")
        assert_results_bit_identical(obj, arr)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_warm_start_equivalence(self, n, seed):
        instance = quick_instance(n_devices=n, n_chargers=3, seed=seed, capacity=6)
        warm = ccsga(instance, certify=False, engine="object").schedule
        obj = ccsga(instance, warm_start=warm, engine="object")
        arr = ccsga(instance, warm_start=warm, engine="array")
        assert_results_bit_identical(obj, arr)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=1_000),
        order_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_random_visit_order_equivalence(self, n, seed, order_seed):
        instance = quick_instance(n_devices=n, n_chargers=3, seed=seed)
        obj = ccsga(instance, rng=order_seed, engine="object")
        arr = ccsga(instance, rng=order_seed, engine="array")
        assert_results_bit_identical(obj, arr)


# --------------------------------------------------------------------- #
# 3. packed-row fuzz


_PACKED_STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(1, 4)),
    st.tuples(st.just("place"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("move"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("retire"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6)),
)


def _targets(structure, device, n_chargers):
    """Every legal ``(target, charger)`` for *device* (placed or not)."""
    inst = structure.instance
    src = structure.coalition_of(device) if structure.is_placed(device) else None
    joins = [
        (c.cid, c.charger)
        for c in structure.coalitions()
        if c is not src and inst.chargers[c.charger].admits(c.size + 1)
    ]
    singles = [
        (None, j)
        for j in range(n_chargers)
        if not (src is not None and src.size == 1 and src.charger == j)
    ]
    return joins + singles


def _best_move(view, device, rule):
    """The vectorized ``rule.best_move``: a one-row ``first_move``."""
    hit = view.first_move((device,), rule)
    return None if hit is None else hit[1]


def _scans(view, structure, devices):
    """Every vectorized scan result over *devices*, for comparison."""
    return [
        _best_move(view, d, rule)
        if structure.is_placed(d)
        else view.insert_batch((d,)).choice(0)
        for d in devices
        for rule in RULES
    ]


class TestLockstepState:
    """One live structure; the vectorized scans read its packed rows."""

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(SCHEMES)),
        capacity=st.sampled_from([None, 1, 2, 3]),
        n_chargers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        steps=st.lists(_PACKED_STEP, min_size=5, max_size=40),
    )
    def test_packed_rows_match_object_scans_under_random_steps(
        self, scheme, capacity, n_chargers, seed, steps
    ):
        rng = np.random.default_rng(seed)
        chargers = [
            Charger(
                charger_id=f"c{j}",
                position=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
                capacity=capacity,
            )
            for j in range(n_chargers)
        ]
        planner = IncrementalPlanner(chargers, scheme=SCHEMES[scheme], engine="array")
        structure, inst, view = planner.structure, planner.instance, planner._view
        assert isinstance(structure, GrowableCoalitionStructure)
        for step, *args in [("add", 4)] + steps:
            placed = sorted(structure._of_device)
            unplaced = [d for d in range(inst.n_devices) if d not in structure._of_device]
            if step == "add":
                for _ in range(args[0]):
                    dev = Device(
                        device_id=f"d{inst.n_devices}",
                        position=Point(
                            float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
                        ),
                        demand=float(rng.uniform(5e3, 60e3)),
                        moving_rate=float(rng.uniform(0.01, 0.2)),
                    )
                    planner.add(dev, 0.0)
            elif step in ("place", "move"):
                pool = unplaced if step == "place" else placed
                if not pool:
                    continue
                device = pool[args[0] % len(pool)]
                targets = _targets(structure, device, n_chargers)
                if not targets:
                    continue
                target, charger = targets[args[1] % len(targets)]
                getattr(structure, step)(device, target, charger)
            elif step == "remove" and placed:
                structure.remove(placed[args[0] % len(placed)])
            elif step == "retire" and structure.n_coalitions:
                cids = sorted(structure._coalitions)
                structure.retire(cids[args[0] % len(cids)])
            elif step == "flip":
                j = args[0] % n_chargers
                inst.set_available(j, not inst.charger_available(j))
            structure.check_invariants()
            for device in sorted(structure._of_device):
                for rule in RULES:
                    assert _best_move(view, device, rule) == rule.best_move(
                        structure, device
                    )
            for device in range(inst.n_devices):
                if not structure.is_placed(device):
                    choice = view.insert_batch((device,)).choice(0)
                    assert choice == planner._object_best_insert(device)
        # A snapshot restore re-creates the coalitions in cid order, so its
        # rows are ordered differently from the live (swap-removed) ones:
        # no scan may notice.
        restored = GrowableCoalitionStructure(inst, structure.scheme)
        for device in range(inst.n_devices):
            restored.register_device(device)
        for cid in sorted(structure._coalitions):
            restored._next_cid = cid
            restored._create(
                structure._coalitions[cid].charger, structure._coalitions[cid].members
            )
        restored._total_cost = structure.total_cost
        restored.check_invariants()
        devices = range(inst.n_devices)
        assert _scans(StructureArrayView(restored), restored, devices) == _scans(
            view, structure, devices
        )

    def test_structure_rejects_illegal_moves(self):
        instance = quick_instance(n_devices=4, n_chargers=2, seed=3, capacity=1)
        obj = CoalitionStructure.singletons(instance, EgalitarianSharing())
        cid = next(iter(obj.coalitions())).cid
        member = next(iter(obj.coalition_of(0).members))
        with pytest.raises(ValueError):
            obj.move(member, obj.coalition_of(member).cid, 0)
        # capacity=1: every join is inadmissible.
        other = next(i for i in range(4) if obj.coalition_of(i).cid != cid)
        with pytest.raises(ValueError):
            obj.move(other, cid, obj._coalitions[cid].charger)
        with pytest.raises(KeyError):
            obj.move(0, 999_999, 0)
        obj.check_invariants()

    def test_structure_view_matches_rule_best_move(self):
        instance = quick_instance(n_devices=18, n_chargers=4, seed=11, capacity=6)
        for scheme in SCHEMES.values():
            structure = CoalitionStructure.singletons(instance, scheme)
            view = StructureArrayView(structure)
            for rule in RULES:
                # Interleave scans and moves so every scan reads rows
                # the moves before it rewrote.
                for device in range(instance.n_devices):
                    expected = rule.best_move(structure, device)
                    assert _best_move(view, device, rule) == expected
                    if expected is not None:
                        structure.move(device, expected.target, expected.charger)


class TestBestResponseSweep:
    """``best_response_sweep`` plays the moves of a plain one-device loop
    over ``rule.best_move``, on either engine and whatever its first
    segment: the same ``(position, move)`` sequence, the same total-cost
    bits and the same candidate tally (one per live coalition and per
    charger for each scanned device), with down chargers and unbounded
    capacity in the mix."""

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(SCHEMES)),
        rule=st.sampled_from(RULES),
        capacity=st.sampled_from([None, 1, 2, 3]),
        n_chargers=st.integers(1, 4),
        n=st.integers(1, 14),
        down=st.lists(st.booleans(), min_size=4, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_every_segment_policy_matches_a_one_device_loop(
        self, scheme, rule, capacity, n_chargers, n, down, seed
    ):
        def build():
            """A random live structure, some chargers down, and a visit
            order that goes round twice (the second round mostly idle)."""
            rng = np.random.default_rng(seed)
            chargers = [
                Charger(
                    charger_id=f"c{j}",
                    position=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
                    capacity=capacity,
                )
                for j in range(n_chargers)
            ]
            planner = IncrementalPlanner(chargers, scheme=SCHEMES[scheme], engine="object")
            structure = planner.structure
            for k in range(n):
                device = planner.add(
                    Device(
                        device_id=f"d{k}",
                        position=Point(
                            float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
                        ),
                        demand=float(rng.uniform(5e3, 60e3)),
                        moving_rate=float(rng.uniform(0.01, 0.2)),
                    ),
                    0.0,
                )
                targets = _targets(structure, device, n_chargers)
                structure.place(device, *targets[int(rng.integers(len(targets)))])
            for j in range(n_chargers):
                planner.instance.set_available(j, not down[j])
            visit = [int(d) for d in rng.permutation(n)]
            return structure, visit + visit

        structure, order = build()
        moves, candidates = [], 0
        for at, device in enumerate(order):
            candidates += structure.n_coalitions + n_chargers
            move = rule.best_move(structure, device)
            if move is not None:
                structure.move(device, move.target, move.charger)
                moves.append((at, move))
        reference = (moves, structure.total_cost.hex(), candidates)

        for engine in ("object", "array"):
            for first in (1, 2, len(order)):
                structure, order = build()
                view = StructureArrayView(structure) if engine == "array" else None
                moves, candidates = [], 0
                scanned, width = 0, structure.n_coalitions + n_chargers
                for at, move in best_response_sweep(structure, rule, order, first, view):
                    candidates += (at + 1 - scanned) * width
                    scanned, width = at + 1, structure.n_coalitions + n_chargers
                    moves.append((at, move))
                candidates += (len(order) - scanned) * width
                assert (moves, structure.total_cost.hex(), candidates) == reference
                structure.check_invariants()


# --------------------------------------------------------------------- #
# 4. engine knob semantics


class TestEngineKnob:
    def test_auto_picks_array_for_supported_combination(self):
        instance = quick_instance(n_devices=6, n_chargers=2, seed=0)
        assert engine_supported(instance, EgalitarianSharing(), SociallyAwareSwitch())
        result = ccsga(instance, engine="auto")
        assert result.engine == "array"

    def test_auto_falls_back_for_shapley(self):
        instance = quick_instance(n_devices=5, n_chargers=2, seed=1)
        scheme = ShapleySharing()
        assert not engine_supported(instance, scheme, SociallyAwareSwitch())
        result = ccsga(instance, scheme=scheme, engine="auto")
        assert result.engine == "object"

    def test_array_with_shapley_raises(self):
        instance = quick_instance(n_devices=5, n_chargers=2, seed=1)
        with pytest.raises(ConfigurationError):
            ccsga(instance, scheme=ShapleySharing(), engine="array")

    def test_array_view_rejects_scheme_without_vector_shares(self):
        instance = quick_instance(n_devices=5, n_chargers=2, seed=1)
        with pytest.raises(ConfigurationError):
            StructureArrayView(CoalitionStructure.singletons(instance, ShapleySharing()))

    def test_unknown_engine_rejected(self):
        instance = quick_instance(n_devices=4, n_chargers=2, seed=0)
        with pytest.raises(ConfigurationError):
            ccsga(instance, engine="vectorized")

    def test_subclassed_rule_is_not_vectorized(self):
        class TweakedSwitch(SociallyAwareSwitch):
            pass

        instance = quick_instance(n_devices=4, n_chargers=2, seed=0)
        rule = TweakedSwitch()
        assert not engine_supported(instance, EgalitarianSharing(), rule)
        assert (
            resolve_engine("auto", instance, EgalitarianSharing(), rule) == "object"
        )

    def test_env_variable_selects_engine(self, monkeypatch):
        instance = quick_instance(n_devices=6, n_chargers=2, seed=0)
        monkeypatch.setenv("CCS_ENGINE", "object")
        assert ccsga(instance).engine == "object"
        monkeypatch.setenv("CCS_ENGINE", "array")
        assert ccsga(instance).engine == "array"
        monkeypatch.delenv("CCS_ENGINE")
        assert ccsga(instance).engine == "array"  # auto, supported

    def test_explicit_argument_beats_environment(self, monkeypatch):
        instance = quick_instance(n_devices=6, n_chargers=2, seed=0)
        monkeypatch.setenv("CCS_ENGINE", "array")
        assert ccsga(instance, engine="object").engine == "object"

    def test_env_array_is_advisory_not_strict(self, monkeypatch):
        """CCS_ENGINE=array falls back where unsupported; the argument raises."""
        instance = quick_instance(n_devices=5, n_chargers=2, seed=1)
        monkeypatch.setenv("CCS_ENGINE", "array")
        result = ccsga(instance, scheme=ShapleySharing())
        assert result.engine == "object"
        with pytest.raises(ConfigurationError):
            ccsga(instance, scheme=ShapleySharing(), engine="array")


# --------------------------------------------------------------------- #
# planner parity


def _drive_planner(engine):
    chargers = [
        Charger(charger_id="c0", position=Point(10.0, 10.0), capacity=6),
        Charger(charger_id="c1", position=Point(90.0, 90.0), capacity=6),
        Charger(charger_id="c2", position=Point(50.0, 50.0), capacity=6),
    ]
    planner = IncrementalPlanner(chargers, engine=engine)
    import numpy as np

    rng = np.random.default_rng(7)
    indices = []
    for k in range(18):
        dev = Device(
            device_id=f"d{k}",
            position=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            demand=float(rng.uniform(10e3, 40e3)),
        )
        cost, _ = planner.quote(dev)
        indices.append(planner.add(dev, cost))
    # Fold in three epochs, with removals and a retirement between them.
    planner.fold(indices[:8])
    planner.remove(indices[2])
    planner.fold(indices[8:14])
    planner.retire(planner.live_cids()[0])
    planner.fold(indices[14:])
    planner.structure.check_invariants()
    snapshot = sorted(
        (c.charger, tuple(sorted(c.members)))
        for c in planner.structure.coalitions()
    )
    return planner, snapshot


class TestPlannerParity:
    def test_planner_engines_bit_identical(self):
        obj_planner, obj_snapshot = _drive_planner("object")
        arr_planner, arr_snapshot = _drive_planner("array")
        assert obj_planner.engine == "object" and arr_planner.engine == "array"
        assert arr_snapshot == obj_snapshot
        assert arr_planner.structure.total_cost == obj_planner.structure.total_cost
        assert (
            arr_planner.structure.zobrist_hash()
            == obj_planner.structure.zobrist_hash()
        )
        # Identical decisions imply identical work tallies.
        assert arr_planner.ops == obj_planner.ops


@dataclass(frozen=True)
class _SquareTariff(_TariffBase):
    """``base + unit * E**2``: a convex power law.

    :class:`~repro.wpt.PowerLawTariff` only admits concave exponents, so
    alpha = 2 comes from this test-local tariff, which the vectorized
    price table evaluates through its generic per-charger fallback.
    """

    base: float
    unit: float

    def volume_charge(self, energy: float) -> float:
        return self.unit * float(np.power(energy, 2.0))

    def volume_charge_vector(self, energy: np.ndarray) -> np.ndarray:
        return self.unit * np.power(energy, 2.0)


def _tariff(alpha, base, unit):
    if alpha == 2.0:
        return _SquareTariff(base=base, unit=unit * 1e-6)
    return PowerLawTariff(base=base, unit=unit, exponent=alpha)


def _planner_digest(planner):
    st_ = planner.structure
    return (
        {c.cid: (c.charger, frozenset(c.members)) for c in st_.coalitions()},
        st_.total_cost.hex(),
        st_.zobrist_hash(),
        dict(planner.ops),
        sorted(planner.ceiling.items()),
    )


_STEP = st.one_of(
    st.tuples(st.just("fold"), st.integers(1, 8)),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("retire"), st.integers(0, 10**6)),
    st.tuples(st.just("down"), st.integers(0, 10**6)),
    st.tuples(st.just("up"), st.integers(0, 10**6)),
)


class TestPlannerLockstep:
    """Object and array ``IncrementalPlanner`` driven through the same
    random fold / remove / retire / charger down-up sequence must agree
    exactly after every step: partition, total-cost bits, Zobrist hash,
    work tallies.  Each device's ``first_move`` row flag must match
    ``rule.best_move`` on the object structure, move for move."""

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(SCHEMES)),
        alphas=st.sampled_from([(0.5,), (1.0,), (2.0,), (0.5, 1.0, 2.0)]),
        capacity=st.sampled_from([None, 1, 2, 3]),
        n_chargers=st.integers(2, 4),
        seed=st.integers(0, 2**16),
        steps=st.lists(_STEP, min_size=1, max_size=10),
    )
    def test_object_and_array_planners_in_lockstep(
        self, scheme, alphas, capacity, n_chargers, seed, steps
    ):
        rng = np.random.default_rng(seed)
        chargers = [
            Charger(
                charger_id=f"c{j}",
                position=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
                tariff=_tariff(
                    alphas[j % len(alphas)],
                    float(rng.uniform(5.0, 20.0)),
                    float(rng.uniform(0.5, 2.0)),
                ),
                capacity=capacity,
            )
            for j in range(n_chargers)
        ]
        planners = [
            IncrementalPlanner(chargers, scheme=SCHEMES[scheme], engine=engine)
            for engine in ("object", "array")
        ]
        obj, arr = planners
        assert (obj.engine, arr.engine) == ("object", "array")
        pending = []
        for step, arg in steps:
            if step == "fold":
                batch = list(pending)
                for _ in range(arg):
                    dev = Device(
                        device_id=f"d{rng.integers(10**9)}",
                        position=Point(
                            float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
                        ),
                        demand=float(rng.uniform(5e3, 60e3)),
                        moving_rate=float(rng.uniform(0.01, 0.2)),
                    )
                    cost, _ = obj.quote(dev)
                    indices = {p.add(dev, cost) for p in planners}
                    assert len(indices) == 1
                    batch.extend(indices)
                results = [p.fold(batch) for p in planners]
                assert results[0] == results[1]
                pending = list(results[0][1])
            elif step == "remove":
                placed = obj.active_indices()
                if not placed:
                    continue
                device = placed[arg % len(placed)]
                evicted = [p.remove(device) for p in planners]
                assert evicted[0] == evicted[1]
                pending = [d for d in pending if d != device] + evicted[0]
            elif step == "retire":
                cids = obj.live_cids()
                if not cids:
                    continue
                cid = cids[arg % len(cids)]
                assert obj.retire(cid) == arr.retire(cid)
            elif step == "down":
                up = obj.available_chargers()
                if len(up) < 2:
                    continue
                j = up[arg % len(up)]
                for p in planners:
                    p.fail_charger(j)
                displaced = [p.evacuate_charger(j) for p in planners]
                assert displaced[0] == displaced[1]
                pending += displaced[0]
            else:
                j = arg % n_chargers
                for p in planners:
                    p.restore_charger(j)
            assert _planner_digest(arr) == _planner_digest(obj)
            arr.structure.check_invariants()
            placed = obj.active_indices()
            for rule in (obj._social, obj._selfish):
                expected = [rule.best_move(obj.structure, d) for d in placed]
                for device, move in zip(placed, expected):
                    hit = arr._view.first_move([device], rule)
                    assert (hit is not None) == (move is not None)
                    assert hit is None or hit == (0, move)
                first = next(
                    ((at, m) for at, m in enumerate(expected) if m is not None), None
                )
                assert (arr._view.first_move(placed, rule) if placed else None) == first


class TestBatchedInsert:
    """A fold's batched insert chooses what the object scan would, at
    every placement: rows are rescored one per placement, capacity cuts
    a coalition off when it fills, and down chargers stay masked."""

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(SCHEMES)),
        alphas=st.sampled_from([(0.5,), (1.0,), (2.0,), (0.5, 1.0, 2.0)]),
        capacity=st.sampled_from([None, 1, 2, 3]),
        n_chargers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        live=st.integers(0, 8),
        batch=st.integers(1, 10),
        down=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_every_placement_matches_the_object_scan(
        self, scheme, alphas, capacity, n_chargers, seed, live, batch, down
    ):
        rng = np.random.default_rng(seed)
        chargers = [
            Charger(
                charger_id=f"c{j}",
                position=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
                tariff=_tariff(
                    alphas[j % len(alphas)],
                    float(rng.uniform(5.0, 20.0)),
                    float(rng.uniform(0.5, 2.0)),
                ),
                capacity=capacity,
            )
            for j in range(n_chargers)
        ]
        planner = IncrementalPlanner(chargers, scheme=SCHEMES[scheme], engine="array")
        structure = planner.structure

        def added(count):
            return [
                planner.add(
                    Device(
                        device_id=f"d{planner.instance.n_devices}",
                        position=Point(
                            float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
                        ),
                        demand=float(rng.uniform(5e3, 60e3)),
                        moving_rate=float(rng.uniform(0.01, 0.2)),
                    ),
                    0.0,
                )
                for _ in range(count)
            ]

        for device in added(live):
            targets = _targets(structure, device, n_chargers)
            target, charger = targets[int(rng.integers(len(targets)))]
            structure.place(device, target, charger)
        for j in range(n_chargers):
            planner.instance.set_available(j, not down[j])
        devices = added(batch)
        scan = planner._view.insert_batch(devices)
        for b, device in enumerate(devices):
            expected = planner._object_best_insert(device)
            assert scan.choice(b) == expected
            if expected is None:
                break
            scan.placed(b, structure.place(device, *expected))
        structure.check_invariants()


# --------------------------------------------------------------------- #
# tier-1 smoke: the array path stays exercised and fast


@pytest.mark.bench_smoke
def test_bench_smoke_engine_parity():
    """Both engines on one mid-size workload: exact agreement, every sweep."""
    instance = quick_instance(n_devices=120, n_chargers=8, seed=2026, capacity=6)
    for scheme in SCHEMES.values():
        obj = ccsga(instance, scheme=scheme, engine="object")
        arr = ccsga(instance, scheme=scheme, engine="array")
        assert_results_bit_identical(obj, arr)
        assert arr.engine == "array"
