"""Geometric location model: 2-D points and polygonal regions.

The geometric model is the finest-grained of the Section-3.3 location models;
room polygons give the symbolic<->geometric conversion, and point distance
feeds the "closest" Which policy in CAPA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

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


class Polygon:
    """A simple (non-self-intersecting) polygon with containment tests."""

    def __init__(self, vertices: Sequence[Point]):
        if len(vertices) < 3:
            raise LocationError(f"polygon needs >= 3 vertices, got {len(vertices)}")
        self.vertices: List[Point] = list(vertices)

    def contains(self, point: Point) -> bool:
        """Ray-casting point-in-polygon; boundary points count as inside."""
        if self.on_boundary(point):
            return True
        inside = False
        count = len(self.vertices)
        for index in range(count):
            a = self.vertices[index]
            b = self.vertices[(index + 1) % count]
            intersects = (a.y > point.y) != (b.y > point.y)
            if intersects:
                x_cross = a.x + (point.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if point.x < x_cross:
                    inside = not inside
        return inside

    def on_boundary(self, point: Point, tolerance: float = 1e-9) -> bool:
        count = len(self.vertices)
        for index in range(count):
            a = self.vertices[index]
            b = self.vertices[(index + 1) % count]
            if _point_on_segment(point, a, b, tolerance):
                return True
        return False

    def centroid(self) -> Point:
        """Area-weighted centroid (falls back to vertex mean for degenerate area)."""
        doubled_area = 0.0
        cx = 0.0
        cy = 0.0
        count = len(self.vertices)
        for index in range(count):
            a = self.vertices[index]
            b = self.vertices[(index + 1) % count]
            cross = a.x * b.y - b.x * a.y
            doubled_area += cross
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        if abs(doubled_area) < 1e-12:
            mean_x = sum(v.x for v in self.vertices) / count
            mean_y = sum(v.y for v in self.vertices) / count
            return Point(mean_x, mean_y)
        factor = 1.0 / (3.0 * doubled_area)
        return Point(cx * factor, cy * factor)

    def area(self) -> float:
        doubled = 0.0
        count = len(self.vertices)
        for index in range(count):
            a = self.vertices[index]
            b = self.vertices[(index + 1) % count]
            doubled += a.x * b.y - b.x * a.y
        return abs(doubled) / 2.0

    def distance_to_point(self, point: Point) -> float:
        """0 when inside; otherwise the distance to the nearest edge."""
        if self.contains(point):
            return 0.0
        count = len(self.vertices)
        best = float("inf")
        for index in range(count):
            a = self.vertices[index]
            b = self.vertices[(index + 1) % count]
            best = min(best, _segment_distance(point, a, b))
        return best

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices, area={self.area():.1f})"


class Rect(Polygon):
    """Axis-aligned rectangle — the common room shape."""

    def __init__(self, x: float, y: float, width: float, height: float):
        if width <= 0 or height <= 0:
            raise LocationError(f"degenerate rect: {width}x{height}")
        super().__init__([
            Point(x, y),
            Point(x + width, y),
            Point(x + width, y + height),
            Point(x, y + height),
        ])
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


def _point_on_segment(p: Point, a: Point, b: Point, tolerance: float) -> bool:
    return _segment_distance(p, a, b) <= tolerance


def _segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from ``p`` to the segment ``a``–``b``."""
    ab_x = b.x - a.x
    ab_y = b.y - a.y
    length_sq = ab_x * ab_x + ab_y * ab_y
    if length_sq == 0.0:
        return p.distance_to(a)
    t = ((p.x - a.x) * ab_x + (p.y - a.y) * ab_y) / length_sq
    t = max(0.0, min(1.0, t))
    nearest = Point(a.x + t * ab_x, a.y + t * ab_y)
    return p.distance_to(nearest)


def path_length(points: Iterable[Point]) -> float:
    """Total polyline length — used to compare candidate paths."""
    total = 0.0
    previous = None
    for point in points:
        if previous is not None:
            total += previous.distance_to(point)
        previous = point
    return total
