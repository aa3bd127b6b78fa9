"""The rectangular deployment field.

A :class:`Field` is the spatial boundary of one CCS scenario: devices and
chargers live inside it, deployment generators sample positions from it,
and the testbed simulator uses it to bound node movement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from .point import Point

__all__ = ["Field"]


@dataclass(frozen=True)
class Field:
    """An axis-aligned rectangular field ``[0, width] × [0, height]`` in meters."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(d) and d > 0 for d in (self.width, self.height)):
            raise ConfigurationError(
                f"field dimensions must be finite and positive, got {self.width} x {self.height}"
            )

    @classmethod
    def square(cls, side: float) -> "Field":
        """A square field of the given *side* length (the paper-style default)."""
        return cls(side, side)

    @property
    def area(self) -> float:
        """Field area in square meters."""
        return self.width * self.height

    @property
    def diagonal(self) -> float:
        """Length of the field diagonal — the maximum possible travel distance."""
        return (self.width**2 + self.height**2) ** 0.5

    @property
    def center(self) -> Point:
        """Geometric center of the field."""
        return Point(self.width / 2.0, self.height / 2.0)

    def contains(self, point: Point) -> bool:
        """True if *point* lies inside the field (boundary inclusive)."""
        return 0.0 <= point.x <= self.width and 0.0 <= point.y <= self.height

    def clamp(self, point: Point) -> Point:
        """Project *point* onto the field, clipping each coordinate to bounds.

        The testbed simulator uses this so that noisy movement never carries
        a node outside the deployment area.
        """
        return Point(
            min(max(point.x, 0.0), self.width),
            min(max(point.y, 0.0), self.height),
        )
