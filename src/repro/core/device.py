"""Rechargeable devices — the buyers in the charging-service market."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..errors import ConfigurationError
from ..geometry import Point

__all__ = ["Device"]


@dataclass(frozen=True)
class Device:
    """One mobile rechargeable sensor node requesting charging service.

    Parameters
    ----------
    device_id:
        Stable identifier, unique within an instance.
    position:
        Current location; the start of the trip to whichever charger the
        scheduler assigns.
    demand:
        Energy the device wants stored in its battery this round, in joules.
        Must be positive — zero-demand devices simply do not enter the
        instance.
    moving_rate:
        Monetary cost the device assigns to each meter of travel.  This is a
        *valuation*, not physics: it folds together locomotion energy price,
        wear, and mission downtime, and is how the paper trades charging
        cost against moving cost in one objective.
    speed:
        Travel speed in m/s; used by the testbed simulator for timing (the
        static CCS objective does not depend on it).
    """

    device_id: str
    position: Point
    demand: float
    moving_rate: float = 0.05
    speed: float = 1.0

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ConfigurationError("device_id must be a nonempty string")
        if self.demand <= 0:
            raise ConfigurationError(
                f"device {self.device_id!r}: demand must be positive, got {self.demand}"
            )
        if self.moving_rate < 0:
            raise ConfigurationError(
                f"device {self.device_id!r}: moving_rate must be nonnegative, "
                f"got {self.moving_rate}"
            )
        if self.speed <= 0:
            raise ConfigurationError(
                f"device {self.device_id!r}: speed must be positive, got {self.speed}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form: the identifier and five float fields.

        The one device codec: instance files and the service journal's
        ``submit`` records both embed it.
        """
        return {
            "id": self.device_id,
            "x": float(self.position.x),
            "y": float(self.position.y),
            "demand": float(self.demand),
            "moving_rate": float(self.moving_rate),
            "speed": float(self.speed),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Device":
        """Inverse of :meth:`to_dict`; ``speed`` defaults to 1.0 when absent."""
        return cls(
            device_id=data["id"],
            position=Point(float(data["x"]), float(data["y"])),
            demand=float(data["demand"]),
            moving_rate=float(data["moving_rate"]),
            speed=float(data.get("speed", 1.0)),
        )
