"""JSON serialization of instances and schedules.

Experiments produce instances and schedules worth keeping: regression
fixtures, the exact instance behind a plotted point, schedules to replay
on the testbed.  This module round-trips both through plain JSON with a
versioned envelope, refusing payloads it cannot faithfully reconstruct
(unknown tariff or mobility types) rather than guessing.

It also holds :func:`atomic_replace`, the one way a durable file is
published over its old version.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from .core import CCSInstance, Device, Schedule, Session
from .errors import ConfigurationError
from .geometry import Field, Point
from .mobility import LinearMobility, ManhattanMobility, QuadraticMobility
from .wpt import Charger, LinearTariff, PiecewiseConcaveTariff, PowerLawTariff

__all__ = [
    "atomic_replace",
    "charger_to_dict",
    "charger_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_instance",
    "load_instance",
    "save_schedule",
    "load_schedule",
]

FORMAT_VERSION = 1

_TARIFF_TYPES = {
    "linear": LinearTariff,
    "power_law": PowerLawTariff,
    "piecewise": PiecewiseConcaveTariff,
}
_MOBILITY_TYPES = {
    "linear": LinearMobility,
    "quadratic": QuadraticMobility,
    "manhattan": ManhattanMobility,
}


def _tariff_to_dict(tariff) -> Dict[str, Any]:
    if isinstance(tariff, PowerLawTariff):
        return {
            "type": "power_law",
            "base": tariff.base,
            "unit": tariff.unit,
            "exponent": tariff.exponent,
        }
    if isinstance(tariff, LinearTariff):
        return {"type": "linear", "base": tariff.base, "unit": tariff.unit}
    if isinstance(tariff, PiecewiseConcaveTariff):
        return {
            "type": "piecewise",
            "base": tariff.base,
            "breakpoints": list(tariff.breakpoints),
            "marginal_prices": list(tariff.marginal_prices),
        }
    raise ConfigurationError(
        f"cannot serialize tariff of type {type(tariff).__name__}"
    )


def _tariff_from_dict(data: Dict[str, Any]):
    kind = data.get("type")
    if kind not in _TARIFF_TYPES:
        raise ConfigurationError(
            f"unknown tariff type {kind!r}; known: {sorted(_TARIFF_TYPES)}"
        )
    kwargs = {k: v for k, v in data.items() if k != "type"}
    return _TARIFF_TYPES[kind](**kwargs)


def _mobility_to_dict(mobility) -> Dict[str, Any]:
    if isinstance(mobility, QuadraticMobility):
        return {"type": "quadratic", "curvature": mobility.curvature}
    if isinstance(mobility, LinearMobility):
        return {"type": "linear"}
    if isinstance(mobility, ManhattanMobility):
        return {"type": "manhattan"}
    raise ConfigurationError(
        f"cannot serialize mobility model of type {type(mobility).__name__}"
    )


def _mobility_from_dict(data: Dict[str, Any]):
    kind = data.get("type")
    if kind not in _MOBILITY_TYPES:
        raise ConfigurationError(
            f"unknown mobility type {kind!r}; known: {sorted(_MOBILITY_TYPES)}"
        )
    kwargs = {k: v for k, v in data.items() if k != "type"}
    return _MOBILITY_TYPES[kind](**kwargs)


def charger_to_dict(charger: Charger) -> Dict[str, Any]:
    """Serialize one charger to a plain-JSON dict.

    Unlike the instance envelope (which predates it and omits the field
    for compatibility), this round-trips ``service_discipline`` too — the
    sharded replay tasks ship chargers to worker processes through it and
    must reconstruct them exactly.
    """
    return {
        "id": charger.charger_id,
        "x": charger.position.x,
        "y": charger.position.y,
        "tariff": _tariff_to_dict(charger.tariff),
        "efficiency": charger.efficiency,
        "transmit_power": charger.transmit_power,
        "capacity": charger.capacity,
        "service_discipline": charger.service_discipline,
    }


def charger_from_dict(data: Dict[str, Any]) -> Charger:
    """Reconstruct a charger serialized by :func:`charger_to_dict`."""
    return Charger(
        charger_id=data["id"],
        position=Point(data["x"], data["y"]),
        tariff=_tariff_from_dict(data["tariff"]),
        efficiency=data["efficiency"],
        transmit_power=data["transmit_power"],
        capacity=data["capacity"],
        service_discipline=data.get("service_discipline", "sequential"),
    )


def instance_to_dict(instance: CCSInstance) -> Dict[str, Any]:
    """Serialize an instance to a JSON-compatible dict (versioned)."""
    return {
        "format": "ccs-instance",
        "version": FORMAT_VERSION,
        "devices": [
            {
                "id": d.device_id,
                "x": d.position.x,
                "y": d.position.y,
                "demand": d.demand,
                "moving_rate": d.moving_rate,
                "speed": d.speed,
            }
            for d in instance.devices
        ],
        "chargers": [
            {
                "id": c.charger_id,
                "x": c.position.x,
                "y": c.position.y,
                "tariff": _tariff_to_dict(c.tariff),
                "efficiency": c.efficiency,
                "transmit_power": c.transmit_power,
                "capacity": c.capacity,
            }
            for c in instance.chargers
        ],
        "mobility": _mobility_to_dict(instance.mobility),
        "field": (
            {"width": instance.field_area.width, "height": instance.field_area.height}
            if instance.field_area is not None
            else None
        ),
    }


def _check_envelope(data: Dict[str, Any], expected: str) -> None:
    if data.get("format") != expected:
        raise ConfigurationError(
            f"payload is {data.get('format')!r}, expected {expected!r}"
        )
    if data.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported format version {data.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )


def instance_from_dict(data: Dict[str, Any]) -> CCSInstance:
    """Reconstruct an instance serialized by :func:`instance_to_dict`."""
    _check_envelope(data, "ccs-instance")
    devices = [
        Device(
            device_id=d["id"],
            position=Point(d["x"], d["y"]),
            demand=d["demand"],
            moving_rate=d["moving_rate"],
            speed=d["speed"],
        )
        for d in data["devices"]
    ]
    chargers = [
        Charger(
            charger_id=c["id"],
            position=Point(c["x"], c["y"]),
            tariff=_tariff_from_dict(c["tariff"]),
            efficiency=c["efficiency"],
            transmit_power=c["transmit_power"],
            capacity=c["capacity"],
        )
        for c in data["chargers"]
    ]
    field = data.get("field")
    return CCSInstance(
        devices=devices,
        chargers=chargers,
        mobility=_mobility_from_dict(data["mobility"]),
        field_area=Field(field["width"], field["height"]) if field else None,
    )


def schedule_to_dict(schedule: Schedule, instance: CCSInstance) -> Dict[str, Any]:
    """Serialize a schedule using stable identifiers (not indices)."""
    return {
        "format": "ccs-schedule",
        "version": FORMAT_VERSION,
        "solver": schedule.solver,
        "metadata": dict(schedule.metadata),
        "sessions": [
            {
                "charger": instance.chargers[s.charger].charger_id,
                "members": sorted(
                    instance.devices[i].device_id for i in s.members
                ),
            }
            for s in schedule.sessions
        ],
    }


def schedule_from_dict(data: Dict[str, Any], instance: CCSInstance) -> Schedule:
    """Reconstruct a schedule against *instance* (identifiers must resolve)."""
    _check_envelope(data, "ccs-schedule")
    sessions = []
    for s in data["sessions"]:
        charger = instance.charger_index(s["charger"])
        members = frozenset(instance.device_index(d) for d in s["members"])
        sessions.append(Session(charger=charger, members=members))
    return Schedule(
        sessions, solver=data.get("solver", "unknown"), metadata=data.get("metadata")
    )


def save_instance(instance: CCSInstance, path: str) -> None:
    """Write an instance to *path* as JSON."""
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)


def load_instance(path: str) -> CCSInstance:
    """Read an instance written by :func:`save_instance`."""
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_schedule(schedule: Schedule, instance: CCSInstance, path: str) -> None:
    """Write a schedule to *path* as JSON (identifiers, not indices)."""
    with open(path, "w") as fh:
        json.dump(schedule_to_dict(schedule, instance), fh, indent=2)


def load_schedule(path: str, instance: CCSInstance) -> Schedule:
    """Read a schedule written by :func:`save_schedule`."""
    with open(path) as fh:
        return schedule_from_dict(json.load(fh), instance)


def atomic_replace(tmp: Union[str, Path], path: Union[str, Path]) -> None:
    """Publish the written file *tmp* as *path*, durably and atomically.

    fsync *tmp*, :func:`os.replace` it over *path*, then fsync the
    directory, so after a power cut *path* holds either its old contents
    or all of *tmp* — never a lost rename or a name over unwritten data.
    *tmp* must live in *path*'s directory.
    """
    _fsync(tmp)
    os.replace(tmp, path)
    _fsync(Path(path).parent)


def _fsync(path: Union[str, Path]) -> None:
    """fsync a file or a directory by name."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
