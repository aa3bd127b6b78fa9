"""Moving-cost and travel-time models.

The CCS objective charges each device a *monetary* moving cost for the trip
to its charger.  The default is the paper-style linear model (cost-per-
meter), but the module exposes a protocol so ablations can plug in convex
costs (fatigue) or metric substitutions (Manhattan travel on a campus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from ..geometry import Point

__all__ = [
    "MobilityModel",
    "LinearMobility",
    "QuadraticMobility",
    "ManhattanMobility",
]


@runtime_checkable
class MobilityModel(Protocol):
    """Maps a trip to its monetary cost and duration."""

    def moving_cost(self, origin: Point, destination: Point, rate: float) -> float:
        """Monetary cost for a device with per-meter *rate* to make the trip."""
        ...

    def travel_time(self, origin: Point, destination: Point, speed: float) -> float:
        """Seconds the trip takes at *speed* meters/second."""
        ...


class _EuclideanTravelTime:
    """Shared straight-line travel-time behaviour."""

    def travel_time(self, origin: Point, destination: Point, speed: float) -> float:
        if speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed}")
        return origin.distance_to(destination) / speed


@dataclass(frozen=True)
class LinearMobility(_EuclideanTravelTime):
    """``cost = rate * euclidean_distance`` — the model the paper assumes."""

    def moving_cost(self, origin: Point, destination: Point, rate: float) -> float:
        if rate < 0:
            raise ConfigurationError(f"moving rate must be nonnegative, got {rate}")
        return rate * origin.distance_to(destination)

    def moving_cost_matrix(self, distances, rates):
        """Whole-matrix fast path: ``rates[:, None] * distances``.

        *distances* is the device x charger Euclidean distance matrix and
        *rates* the per-device rate vector; each entry is bitwise equal to
        the scalar :meth:`moving_cost` on the same distance (one IEEE
        multiply either way).  Every instance probes for this hook so the
        cost matrix is derived from the shared distance matrix instead of
        ``n * m`` per-pair model calls.  For one device, *rates* may be its
        scalar rate and *distances* its row: the service plan's admission
        quote takes this lean path (no broadcasting, scalar validation).
        """
        if isinstance(rates, (int, float)):
            if rates < 0:
                raise ConfigurationError(f"moving rate must be nonnegative, got {rates}")
            return rates * np.asarray(distances, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if np.any(rates < 0):
            raise ConfigurationError("moving rates must be nonnegative")
        return rates[:, None] * np.asarray(distances, dtype=float)


@dataclass(frozen=True)
class QuadraticMobility(_EuclideanTravelTime):
    """``cost = rate * d + curvature * d**2`` — convex long-trip penalty.

    Models devices for which long trips are disproportionately expensive
    (battery stress, mission downtime).  Used by ablation benchmarks to show
    the schedulers do not depend on linearity of the moving cost.
    """

    curvature: float = 0.001

    def __post_init__(self) -> None:
        if self.curvature < 0:
            raise ConfigurationError(
                f"curvature must be nonnegative, got {self.curvature}"
            )

    def moving_cost(self, origin: Point, destination: Point, rate: float) -> float:
        if rate < 0:
            raise ConfigurationError(f"moving rate must be nonnegative, got {rate}")
        d = origin.distance_to(destination)
        return rate * d + self.curvature * d**2


@dataclass(frozen=True)
class ManhattanMobility:
    """L1 travel for grid-constrained environments (corridors, city blocks)."""

    def moving_cost(self, origin: Point, destination: Point, rate: float) -> float:
        if rate < 0:
            raise ConfigurationError(f"moving rate must be nonnegative, got {rate}")
        return rate * origin.manhattan_distance_to(destination)

    def travel_time(self, origin: Point, destination: Point, speed: float) -> float:
        if speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed}")
        return origin.manhattan_distance_to(destination) / speed
