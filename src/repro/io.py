"""JSON serialization of instances and schedules.

Experiments produce instances and schedules worth keeping: regression
fixtures, the exact instance behind a plotted point, schedules to replay
on the testbed.  This module round-trips both through plain JSON with a
versioned envelope, refusing payloads it cannot faithfully reconstruct
(unknown tariff or mobility types) rather than guessing.

It also holds the service's one storage seam, :class:`Storage`, and
:func:`atomic_replace`, the one way a durable file is published over its
old version.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Union

from .core import CCSInstance, Device, Schedule, Session
from .errors import ConfigurationError
from .geometry import Field, Point
from .mobility import LinearMobility, ManhattanMobility, QuadraticMobility
from .wpt import Charger, LinearTariff, PiecewiseConcaveTariff, PowerLawTariff

__all__ = [
    "POSIX",
    "Storage",
    "atomic_replace",
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


def instance_to_dict(instance: CCSInstance) -> Dict[str, Any]:
    """Serialize an instance to a JSON-compatible dict (versioned)."""
    return {
        "format": "ccs-instance",
        "version": FORMAT_VERSION,
        "devices": [d.to_dict() for d in instance.devices],
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
    devices = [Device.from_dict(d) for d in data["devices"]]
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


class Storage:
    """The file operations that make service state durable, on POSIX.

    Journals, snapshots, the shard manifest and the supervision log take
    them from a storage, so the order in which bytes, fsyncs and renames
    reach the disk is decided here.  A wrapper (fault injection, a
    recording shim) passes what it does not change to the one it wraps.
    """

    def open_append(self, path: Path, truncate: bool) -> BinaryIO:
        """Open *path* for appending, emptied first when *truncate*."""
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "wb" if truncate else "ab")

    def append(self, fh: BinaryIO, data: bytes) -> None:
        """Write *data* to *fh* and flush it to the operating system."""
        fh.write(data)
        fh.flush()

    def barrier(self, fh: BinaryIO) -> None:
        """fsync *fh*: everything appended so far survives a power cut."""
        os.fsync(fh.fileno())

    def truncate(self, fh: BinaryIO, size: int) -> None:
        """Cut *fh*'s file to its first *size* bytes."""
        fh.seek(size)
        fh.truncate()
        fh.flush()

    def publish(
        self, path: Path, chunks: Iterable[bytes], tmp: Optional[Path] = None
    ) -> None:
        """Write *chunks* to the sibling *tmp* (default ``<path>.tmp``)
        and rename it to *path* durably (:func:`atomic_replace`)."""
        tmp = tmp if tmp is not None else path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        atomic_replace(tmp, path)

    def read(self, path: Path) -> BinaryIO:
        """Open *path* for reading."""
        return open(path, "rb")

    def listdir(self, directory: Path) -> List[str]:
        """The names in *directory*, sorted."""
        return sorted(p.name for p in directory.iterdir())

    def remove(self, paths: Iterable[Path], durable: bool = False) -> int:
        """Delete whichever of *paths* exist and return how many; with
        *durable*, then fsync each directory that lost a file."""
        touched = []
        for path in paths:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            touched.append(path.parent)
        if durable:
            for directory in sorted(set(touched)):
                _fsync(directory)
        return len(touched)


#: The storage every journal, snapshot and manifest uses unless given another.
POSIX = Storage()
