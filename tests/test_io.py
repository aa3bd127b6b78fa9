"""Tests for JSON serialization of instances and schedules, and durable renames."""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.core import ccsa, comprehensive_cost, validate_schedule
from repro.errors import ConfigurationError
from repro.experiments.exec import ResultCache, Task
from repro.io import (
    atomic_replace,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.mobility import ManhattanMobility, QuadraticMobility
from repro.workloads import quick_instance, testbed_instance as make_testbed
from repro.wpt import PiecewiseConcaveTariff


class TestInstanceRoundTrip:
    def test_round_trip_preserves_costs(self, random_instance):
        data = instance_to_dict(random_instance)
        restored = instance_from_dict(data)
        assert restored.n_devices == random_instance.n_devices
        assert restored.n_chargers == random_instance.n_chargers
        for i in range(restored.n_devices):
            for j in range(restored.n_chargers):
                assert restored.moving_cost(i, j) == pytest.approx(
                    random_instance.moving_cost(i, j)
                )
        group = list(range(restored.n_devices))
        assert restored.group_cost(group, 0) == pytest.approx(
            random_instance.group_cost(group, 0)
        )

    def test_round_trip_is_json_compatible(self, random_instance):
        text = json.dumps(instance_to_dict(random_instance))
        restored = instance_from_dict(json.loads(text))
        assert restored.describe() == random_instance.describe()

    def test_testbed_round_trip(self):
        inst = make_testbed(rng=5)
        restored = instance_from_dict(instance_to_dict(inst))
        assert [c.charger_id for c in restored.chargers] == [
            c.charger_id for c in inst.chargers
        ]
        assert restored.field_area.width == inst.field_area.width

    def test_mobility_variants_round_trip(self):
        for mobility in (QuadraticMobility(curvature=0.02), ManhattanMobility()):
            inst = quick_instance(4, 2, seed=1)
            inst2 = type(inst)(
                devices=list(inst.devices),
                chargers=list(inst.chargers),
                mobility=mobility,
            )
            restored = instance_from_dict(instance_to_dict(inst2))
            assert type(restored.mobility) is type(mobility)
            assert restored.moving_cost(0, 0) == pytest.approx(inst2.moving_cost(0, 0))

    def test_piecewise_tariff_round_trip(self):
        inst = quick_instance(3, 1, seed=2)
        tariff = PiecewiseConcaveTariff(
            base=4.0, breakpoints=[100.0], marginal_prices=[0.5, 0.1]
        )
        charger = type(inst.chargers[0])(
            charger_id="pw", position=inst.chargers[0].position, tariff=tariff
        )
        inst2 = type(inst)(devices=list(inst.devices), chargers=[charger])
        restored = instance_from_dict(instance_to_dict(inst2))
        assert restored.charging_price([0, 1, 2], 0) == pytest.approx(
            inst2.charging_price([0, 1, 2], 0)
        )

    def test_wrong_format_rejected(self, random_instance):
        data = instance_to_dict(random_instance)
        data["format"] = "something-else"
        with pytest.raises(ConfigurationError, match="expected"):
            instance_from_dict(data)

    def test_wrong_version_rejected(self, random_instance):
        data = instance_to_dict(random_instance)
        data["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            instance_from_dict(data)

    def test_unknown_tariff_type_rejected(self, random_instance):
        data = instance_to_dict(random_instance)
        data["chargers"][0]["tariff"] = {"type": "mystery"}
        with pytest.raises(ConfigurationError, match="tariff type"):
            instance_from_dict(data)


class TestScheduleRoundTrip:
    def test_round_trip_preserves_assignment_and_cost(self, random_instance):
        sched = ccsa(random_instance)
        data = schedule_to_dict(sched, random_instance)
        restored = schedule_from_dict(data, random_instance)
        assert restored.canonical() == sched.canonical()
        assert comprehensive_cost(restored, random_instance) == pytest.approx(
            comprehensive_cost(sched, random_instance)
        )
        assert restored.solver == sched.solver
        assert restored.metadata == sched.metadata

    def test_schedule_against_reserialized_instance(self, random_instance):
        # The common workflow: save both, load both, validate.
        sched = ccsa(random_instance)
        inst2 = instance_from_dict(instance_to_dict(random_instance))
        restored = schedule_from_dict(
            schedule_to_dict(sched, random_instance), inst2
        )
        validate_schedule(restored, inst2)

    def test_unknown_device_id_rejected(self, random_instance):
        sched = ccsa(random_instance)
        data = schedule_to_dict(sched, random_instance)
        data["sessions"][0]["members"][0] = "ghost"
        with pytest.raises(KeyError):
            schedule_from_dict(data, random_instance)


class TestFileIO:
    def test_save_load_instance(self, tmp_path, random_instance):
        path = tmp_path / "instance.json"
        save_instance(random_instance, str(path))
        restored = load_instance(str(path))
        assert restored.n_devices == random_instance.n_devices

    def test_save_load_schedule(self, tmp_path, random_instance):
        sched = ccsa(random_instance)
        inst_path = tmp_path / "instance.json"
        sched_path = tmp_path / "schedule.json"
        save_instance(random_instance, str(inst_path))
        save_schedule(sched, random_instance, str(sched_path))
        inst = load_instance(str(inst_path))
        restored = load_schedule(str(sched_path), inst)
        assert restored.canonical() == sched.canonical()


@pytest.fixture
def durability_log(monkeypatch):
    """Every ``os.fsync`` (as ``"file"`` or ``"dir"``) and ``os.replace``, in order."""
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        log.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def replace(src, dst):
        log.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


class TestAtomicReplace:
    def test_file_fsync_then_rename_then_directory_fsync(self, tmp_path, durability_log):
        tmp, path = tmp_path / "doc.tmp", tmp_path / "doc"
        path.write_text("old", encoding="utf-8")
        tmp.write_text("new", encoding="utf-8")
        atomic_replace(tmp, path)
        assert durability_log == ["file", "replace", "dir"]
        assert path.read_text(encoding="utf-8") == "new" and not tmp.exists()

    def test_result_cache_publishes_durably(self, tmp_path, durability_log):
        cache = ResultCache(tmp_path / "cache")
        task = Task("table2", {"n": 3}, seed=1)
        cache.store(task, {"cost": 1.5})
        assert durability_log == ["file", "replace", "dir"]
        assert cache.load(task) == (True, {"cost": 1.5})
        assert [p.name for p in cache.root.rglob("*.tmp")] == []
