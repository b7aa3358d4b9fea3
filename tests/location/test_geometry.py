"""Geometric model: points, rectangles, distances."""

import pytest

from repro.core.errors import LocationError
from repro.location.geometry import Point, Rect, path_length


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)

    def test_ordering_and_hash(self):
        assert Point(1, 2) == Point(1, 2)
        assert len({Point(1, 2), Point(1, 2)}) == 1


class TestRect:
    def test_contains_and_excludes(self):
        rect = Rect(0, 0, 10, 5)
        assert rect.contains(Point(5, 2.5))
        assert rect.contains(Point(0, 0))      # corner
        assert rect.contains(Point(10, 5))     # far corner
        assert not rect.contains(Point(10.01, 5))

    def test_centroid(self):
        assert Rect(2, 2, 4, 6).centroid() == Point(4, 5)

    def test_distance_is_zero_exactly_where_it_contains(self):
        rect = Rect(0, 0, 10, 5)
        assert rect.distance_to_point(Point(10, 5)) == 0.0
        assert rect.distance_to_point(Point(13, 9)) == 5.0
        assert rect.distance_to_point(Point(-2, 3)) == 2.0
        # a subnormal gap: not contained, so not at distance 0
        tiny = Rect(0.0, 1.2754973954820963e-269, 1.0, 1.0)
        assert not tiny.contains(Point(0, 0))
        assert tiny.distance_to_point(Point(0, 0)) == 1.2754973954820963e-269

    def test_degenerate_rejected(self):
        with pytest.raises(LocationError):
            Rect(0, 0, 0, 5)
        with pytest.raises(LocationError):
            Rect(0, 0, 5, -1)


class TestPathLength:
    def test_polyline(self):
        assert path_length([Point(0, 0), Point(3, 0), Point(3, 4)]) == 7.0

    def test_single_point_zero(self):
        assert path_length([Point(1, 1)]) == 0.0

    def test_empty_zero(self):
        assert path_length([]) == 0.0
