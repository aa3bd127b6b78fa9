"""Tier-1 performance smoke test for the CCSGA hot path.

Runs the smoke case recorded in ``benchmarks/BENCH_ccsga.json`` and fails
only if wall time regresses more than ``fail_factor`` (3×) beyond the
recorded budget — a deliberately loose bound that survives slow CI
machines but catches an accidental reintroduction of the O(n · Σ|S|)
from-scratch candidate scan (which is ~30× over budget at this size).

Also runnable via ``make bench-smoke`` or
``pytest -m bench_smoke``; regenerate the budget with
``PYTHONPATH=src python benchmarks/bench_core_hotpath.py`` after an
intentional performance change.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core import ccsga
from repro.workloads import quick_instance

BENCH_FILE = Path(__file__).parent.parent / "benchmarks" / "BENCH_ccsga.json"


@pytest.mark.bench_smoke
def test_ccsga_smoke_within_walltime_budget():
    with open(BENCH_FILE) as fh:
        recorded = json.load(fh)
    smoke = recorded["smoke"]
    workload = recorded["workload"]
    instance = quick_instance(
        n_devices=smoke["n_devices"],
        n_chargers=smoke["n_chargers"],
        seed=workload["seed"],
        capacity=workload["capacity"],
        side=workload["side"],
    )
    start = time.perf_counter()
    result = ccsga(instance, certify=False)
    elapsed = time.perf_counter() - start
    assert result.sweeps >= 1
    limit = smoke["budget_s"] * smoke["fail_factor"]
    assert elapsed < limit, (
        f"CCSGA smoke case (n={smoke['n_devices']}) took {elapsed:.3f}s, "
        f"over the regression limit {limit:.3f}s "
        f"(recorded budget {smoke['budget_s']}s x {smoke['fail_factor']}); "
        "the hot path has regressed — or, after an intentional change, "
        "regenerate benchmarks/BENCH_ccsga.json"
    )


def _grid_planner(seed):
    """A 16-charger array planner and ``admit(count)``, which quotes and
    registers that many random devices (unplaced) and returns their indices."""
    import numpy as np

    from repro.core import Device
    from repro.geometry import Point
    from repro.service import IncrementalPlanner
    from repro.wpt import Charger

    chargers = [
        Charger(
            charger_id=f"c{4 * r + c:02d}",
            position=Point(100.0 * (c + 0.5), 100.0 * (r + 0.5)),
            capacity=10,
        )
        for r in range(4)
        for c in range(4)
    ]
    planner = IncrementalPlanner(chargers, engine="array")
    rng = np.random.default_rng(seed)

    def admit(count):
        indices = []
        for _ in range(count):
            device = Device(
                f"d{planner.instance.n_devices}",
                Point(float(rng.uniform(0, 400)), float(rng.uniform(0, 400))),
                demand=float(rng.uniform(10e3, 40e3)),
                moving_rate=0.05,
            )
            quote, _ = planner.quote(device)
            indices.append(planner.add(device, quote))
        return indices

    return planner, admit


@pytest.mark.bench_smoke
def test_fold_sweep_scores_a_segment_per_kernel_call(monkeypatch):
    """The array engine scores a best-response sweep a segment at a time.

    One 40-device fold over 16 chargers: each improvement sweep calls the
    batched kernel (``StructureArrayView.first_move``) once per segment
    — once per move, plus once for the rest of the sweep after its last
    move when devices remain — so at most ``sweeps + moves`` calls, not
    one per scanned device.  A silent fallback to per-device scans
    multiplies the count without any wall-time signal; this pins it.
    """
    from repro.game import SociallyAwareSwitch, StructureArrayView
    from repro.service import plan

    planner, admit = _grid_planner(seed=0)
    indices = admit(40)

    calls = []
    first_move = StructureArrayView.first_move

    def counted(view, devices, rule):
        hit = first_move(view, devices, rule)
        if isinstance(rule, SociallyAwareSwitch):
            calls.append(len(devices) if hit is None else hit[0] + 1)
        return hit

    sweeps = []
    sweep = plan.best_response_sweep

    def counted_sweep(structure, rule, order, first, view=None):
        sweeps.append([rule, 0])
        for hit in sweep(structure, rule, order, first, view):
            sweeps[-1][1] += 1
            yield hit

    monkeypatch.setattr(StructureArrayView, "first_move", counted)
    monkeypatch.setattr(plan, "best_response_sweep", counted_sweep)
    planner.fold(indices)

    improve = [moves for rule, moves in sweeps if isinstance(rule, SociallyAwareSwitch)]
    assert improve == [10, 4]
    assert sum(calls) == 80  # two full sweeps scan 80 devices...
    # ...in 15 calls: one per move, plus the second sweep's tail (the
    # first sweep's last move is on its last device).
    assert len(calls) == 15 <= len(improve) + sum(improve)


@pytest.mark.bench_smoke
def test_ccsga_array_sweeps_double_their_segments(monkeypatch):
    """Batch ``ccsga`` scores a sweep in segments that double while nobody moves.

    n=300, m=10: 250 switches in 2 sweeps.  Segments start at one device
    and restart there after each move, so the first sweep costs about a
    call per move, and the last (move-free) sweep about log2(300) calls.
    A one-device-per-call loop makes 600 calls (one per device per
    sweep) with no wall-time signal at this size; this pins the count.
    """
    from repro.game import StructureArrayView

    calls = []
    first_move = StructureArrayView.first_move

    def counted(view, devices, rule):
        calls.append(len(devices))
        return first_move(view, devices, rule)

    monkeypatch.setattr(StructureArrayView, "first_move", counted)
    instance = quick_instance(300, 10, seed=2021, capacity=6, side=100.0)
    result = ccsga(instance, certify=False, engine="array")
    assert (result.switches, result.sweeps) == (250, 2)
    assert sum(calls) >= 300 * result.sweeps  # every device is scanned
    assert len(calls) == 295


@pytest.mark.bench_smoke
def test_fold_scores_its_inserts_as_one_batch(monkeypatch):
    """A B-device fold prices its inserts in one call plus one per placement.

    The array engine scores every (live coalition, pending device) join
    in one tariff call (``ChargerPriceTable.prices``) and, after each
    placement, rescores the one coalition it wrote for the devices still
    pending (``ChargerPriceTable.charger_prices``).  A fallback to a
    scan per device would show as B tariff calls and B ``insert_batch``
    scans, with no wall-time signal at this size; this pins it.
    """
    from repro.game import StructureArrayView
    from repro.service import IncrementalPlanner
    from repro.wpt import ChargerPriceTable

    planner, admit = _grid_planner(seed=3)
    planner.fold(admit(20))
    batch = admit(40)

    counts = {"prices": 0, "charger_prices": 0, "insert_batch": 0}
    for owner, name in (
        (ChargerPriceTable, "prices"),
        (ChargerPriceTable, "charger_prices"),
        (StructureArrayView, "insert_batch"),
    ):
        raw = getattr(owner, name)

        def counted(*args, _raw=raw, _name=name):
            counts[_name] += 1
            return _raw(*args)

        monkeypatch.setattr(owner, name, counted)
    at_improve = {}
    improve = IncrementalPlanner._improve

    def improve_once(self, touched):
        at_improve.setdefault("counts", dict(counts))
        return improve(self, touched)

    monkeypatch.setattr(IncrementalPlanner, "_improve", improve_once)
    planner.fold(batch)

    inserts = at_improve["counts"]
    assert inserts["prices"] == 1
    assert 0 < inserts["charger_prices"] <= len(batch) - 1
    assert inserts["insert_batch"] == 1


@pytest.mark.bench_smoke
def test_remove_rechecks_only_the_changed_coalition(monkeypatch):
    """``remove`` repairs by checking the survivors of one coalition.

    The structure records the coalitions it writes, so the repair after
    a removal evaluates ``individual_cost`` for the source coalition's
    survivors only, not for every device in the live plan.
    """
    from repro.game import CoalitionStructure

    planner, admit = _grid_planner(seed=5)
    planner.fold(admit(60))
    st = planner.structure
    source = max(st.coalitions(), key=lambda c: (c.size, c.cid))
    device = min(source.members)
    survivors = sorted(source.members - {device})
    assert len(survivors) >= 2 and len(planner.active_indices()) >= 5 * len(survivors)

    checked = []
    individual_cost = CoalitionStructure.individual_cost

    def counted(structure, d):
        checked.append(d)
        return individual_cost(structure, d)

    monkeypatch.setattr(CoalitionStructure, "individual_cost", counted)
    repairs = planner.ops["repair_moves"]
    assert planner.remove(device) == []
    assert planner.ops["repair_moves"] == repairs
    assert checked == survivors


#: Bytes of the snapshot below under schema 1, which stored each request
#: record as three nested dicts and every planned device a second time.
SCHEMA1_SNAPSHOT_BYTES = 710_711


@pytest.mark.bench_smoke
def test_snapshot_stores_each_record_as_one_flat_row(tmp_path):
    """Bytes, not time: a 1,200-request kernel's snapshot stays within half
    its schema-1 size (schema 2 writes 297,415 bytes here).  Records
    stored as dicts again, or the planner's devices stored again, break
    the ceiling."""
    from repro.cli import _grid_chargers
    from repro.geometry import Field
    from repro.service import ChargingService, ServiceConfig, generate_requests

    requests = generate_requests(1200, rate=0.5, field=Field(100.0, 100.0), rng=29)
    service = ChargingService(
        _grid_chargers(16, 100.0), config=ServiceConfig(),
        journal_path=tmp_path / "j.jsonl", journal_sync=False,
    )
    for request in requests:
        service.submit(request)
    size = service.write_snapshot().stat().st_size
    service.journal.close()
    assert len(service.requests) >= 1000
    assert size <= SCHEMA1_SNAPSHOT_BYTES // 2, (
        f"snapshot of {len(service.requests)} records is {size} bytes, over "
        f"half the schema-1 size ({SCHEMA1_SNAPSHOT_BYTES})"
    )
