"""Geometric location model: 2-D points and rectangular regions.

The geometric model is the finest-grained of the Section-3.3 location models;
room rectangles give the symbolic<->geometric conversion, and point distance
feeds the "closest" Which policy in CAPA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.core.errors import LocationError


@dataclass(frozen=True, order=True)
class Point:
    """A 2-D position in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def __str__(self) -> str:
        return f"({self.x:.2f}, {self.y:.2f})"


class Rect:
    """An axis-aligned rectangle: the region type of every room."""

    def __init__(self, x: float, y: float, width: float, height: float):
        if width <= 0 or height <= 0:
            raise LocationError(f"degenerate rect: {width}x{height}")
        self.x = x
        self.y = y
        self.width = width
        self.height = height

    def contains(self, point: Point) -> bool:
        return (self.x <= point.x <= self.x + self.width
                and self.y <= point.y <= self.y + self.height)

    def distance_to_point(self, point: Point) -> float:
        """The gap on each axis against the bounds :meth:`contains` uses:
        0 exactly when the rectangle contains ``point``."""
        dx = max(self.x - point.x, 0.0, point.x - (self.x + self.width))
        dy = max(self.y - point.y, 0.0, point.y - (self.y + self.height))
        return math.hypot(dx, dy)

    def centroid(self) -> Point:
        return Point(self.x + self.width / 2.0, self.y + self.height / 2.0)


def path_length(points: Iterable[Point]) -> float:
    """Total polyline length — used to compare candidate paths."""
    total = 0.0
    previous = None
    for point in points:
        if previous is not None:
            total += previous.distance_to(point)
        previous = point
    return total
