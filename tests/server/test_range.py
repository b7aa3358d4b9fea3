"""Range definitions: place and point governance."""

import sys
from pathlib import Path

import pytest

from repro.location.building import BuildingModel
from repro.location.geometry import Point, Rect
from repro.server.range import RangeDefinition


class TestPlaceGovernance:
    def test_direct_place(self, building):
        definition = RangeDefinition("lobby", places=["lobby"])
        assert definition.governs_place(building, "lobby")
        assert not definition.governs_place(building, "L10.01")

    def test_hierarchical_place(self, building):
        definition = RangeDefinition("level10", places=["L10"])
        assert definition.governs_place(building, "L10.01")
        assert definition.governs_place(building, "corridor")
        assert not definition.governs_place(building, "lobby")

    def test_whole_building(self, building):
        definition = RangeDefinition("all", places=["livingstone"])
        for room in building.room_names():
            assert definition.governs_place(building, room)

    def test_unknown_place_not_governed(self, building):
        definition = RangeDefinition("x", places=["L10"])
        assert not definition.governs_place(building, "narnia")

    def test_rooms_lists_concrete_rooms(self, building):
        definition = RangeDefinition("level10", places=["L10"])
        rooms = definition.rooms(building)
        assert "L10.01" in rooms and "lobby" not in rooms


def _scan_rooms(definition, building):
    """The rooms ``definition`` governs, one ``governs_place`` per room."""
    return [room for room in building.room_names()
            if definition.governs_place(building, room)]


def _e2e_buildings():
    """The building of each e2e workload's seed-1 plan, with its ranges."""
    e2e = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
    if str(e2e) not in sys.path:
        sys.path.append(str(e2e))
    import deployment
    import generate

    for workload in ("campus_steady", "lookalike_churn", "query_storm",
                     "range_federation"):
        plan = generate.generate(workload, 1)
        yield (deployment.build_building(plan["building"]),
               [RangeDefinition(row["name"], places=row["places"])
                for row in plan["ranges"]])


def _nested_building():
    """Areas inside areas: rooms sit one, two or three places below the
    floor, and some areas hold rooms beside a nested area."""
    building = BuildingModel("site", "hall")
    building.add_floor("G")
    hierarchy = building.hierarchy
    hierarchy.add_place("east", "G")
    hierarchy.add_place("east-labs", "east")
    hierarchy.add_place("west", "G")
    for index, area in enumerate(["east-labs", "east-labs", "east", "west",
                                  "G", "west"]):
        building.add_room(f"r{index}", Rect(index * 5, 0, 5, 5), area)
    return building


class TestRoomsEqualTheScan:
    """``rooms`` walks each governed subtree once; it must list exactly the
    rooms, in the building's order, that ``governs_place`` accepts."""

    def test_e2e_buildings(self):
        for building, definitions in _e2e_buildings():
            for definition in definitions:
                assert definition.rooms(building) == \
                    _scan_rooms(definition, building)

    @pytest.mark.parametrize("places", [
        ["east"], ["east-labs"], ["west", "east-labs"], ["G"], ["hall"],
        ["r2"], ["r4", "east"], ["east", "east-labs"], ["nowhere"],
        ["nowhere", "r5"], []])
    def test_nested_areas(self, places):
        building = _nested_building()
        definition = RangeDefinition("x", places=places)
        assert definition.rooms(building) == _scan_rooms(definition, building)

    def test_livingstone(self, building):
        for places in (["L10"], ["lobby"], ["livingstone"], ["L1", "L10.03"]):
            definition = RangeDefinition("x", places=places)
            assert definition.rooms(building) == \
                _scan_rooms(definition, building)


class TestPointGovernance:
    def test_point_in_governed_room(self, building):
        definition = RangeDefinition("level10", places=["L10"])
        assert definition.governs_point(building,
                                        building.room_centroid("L10.01"))
        assert not definition.governs_point(building,
                                            building.room_centroid("lobby"))

    def test_wlan_bounded_range(self, building):
        definition = RangeDefinition("lobby-net", places=[],
                                     stations=["ap-lobby"])
        assert definition.governs_point(building,
                                        building.room_centroid("lobby"))
        assert not definition.governs_point(building, Point(500, 500))

    def test_outside_everything(self, building):
        definition = RangeDefinition("level10", places=["L10"])
        assert not definition.governs_point(building, Point(-100, -100))
