"""A building model binding the four location models together.

The paper grounds its scenarios in the Livingstone Tower (lift lobby, Level
10, room L10.01, printers P1..P4). :class:`BuildingModel` holds, for one
deployment: room geometry (rectangles), the symbolic hierarchy, the door
topology and the W-LAN signal map — and the cross-model lookups the
converters and the Location Service need. :func:`livingstone_tower` builds
the synthetic instance used by examples, tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import LocationError
from repro.location.geometry import Point, Rect, path_length
from repro.location.signalmap import BaseStation, SignalMap
from repro.location.symbolic import SymbolicHierarchy
from repro.location.topology import Door, Topology


@dataclass
class RoomSpec:
    """One room: symbolic name + footprint + the floor it belongs to."""

    name: str
    shape: Rect
    floor: str


class BuildingModel:
    """Geometry + symbolic hierarchy + topology + signal map for one site."""

    def __init__(self, site_name: str, building_name: str):
        self.site_name = site_name
        self.building_name = building_name
        self.hierarchy = SymbolicHierarchy(site_name)
        self.hierarchy.add_place(building_name, site_name)
        self.topology = Topology()
        self.signal_map = SignalMap()
        self._rooms: Dict[str, RoomSpec] = {}
        self._door_positions: Dict[str, Point] = {}

    # -- construction ---------------------------------------------------------

    def add_floor(self, floor_name: str) -> str:
        self.hierarchy.add_place(floor_name, self.building_name)
        return floor_name

    def add_room(self, name: str, shape: Rect, floor: str) -> RoomSpec:
        if name in self._rooms:
            raise LocationError(f"duplicate room: {name!r}")
        if floor not in self.hierarchy:
            raise LocationError(f"unknown floor: {floor!r}")
        self.hierarchy.add_place(name, floor)
        self.topology.add_place(name)
        spec = RoomSpec(name, shape, floor)
        self._rooms[name] = spec
        return spec

    def add_door(
        self,
        room_a: str,
        room_b: str,
        position: Optional[Point] = None,
        door_id: Optional[str] = None,
        sensor_id: Optional[str] = None,
        length: Optional[float] = None,
    ) -> Door:
        """Connect two rooms; door position defaults to the centroid midpoint."""
        self.room(room_a)
        self.room(room_b)
        if position is None:
            position = self.room_centroid(room_a).midpoint(self.room_centroid(room_b))
        if length is None:
            length = self.room_centroid(room_a).distance_to(self.room_centroid(room_b))
        door_id = door_id or f"door:{room_a}--{room_b}"
        door = self.topology.add_door(
            Door(door_id, room_a, room_b, max(length, 0.1), sensor_id=sensor_id)
        )
        self._door_positions[door_id] = position
        return door

    def add_base_station(self, station: BaseStation) -> BaseStation:
        return self.signal_map.add_station(station)

    # -- room lookups -----------------------------------------------------------

    def room(self, name: str) -> RoomSpec:
        try:
            return self._rooms[name]
        except KeyError:
            raise LocationError(f"unknown room: {name!r}") from None

    def rooms(self) -> List[RoomSpec]:
        return list(self._rooms.values())

    def room_names(self) -> List[str]:
        return list(self._rooms)

    def room_centroid(self, name: str) -> Point:
        return self.room(name).shape.centroid()

    def room_at(self, point: Point) -> Optional[str]:
        """The room containing ``point`` (None when outside every room)."""
        for spec in self._rooms.values():
            if spec.shape.contains(point):
                return spec.name
        return None

    def nearest_room(self, point: Point) -> str:
        """The room containing ``point``, else the closest by edge distance."""
        containing = self.room_at(point)
        if containing is not None:
            return containing
        if not self._rooms:
            raise LocationError("building has no rooms")
        return min(
            self._rooms.values(),
            key=lambda spec: spec.shape.distance_to_point(point),
        ).name

    def door_position(self, door_id: str) -> Point:
        try:
            return self._door_positions[door_id]
        except KeyError:
            raise LocationError(f"unknown door: {door_id!r}") from None

    # -- routing ----------------------------------------------------------------

    def route(self, from_room: str, to_room: str,
              entity_key: object = None) -> Tuple[List[str], float]:
        """Room sequence and cost, respecting door access."""
        return self.topology.shortest_path(from_room, to_room, entity_key)

    def route_polyline(self, from_room: str, to_room: str,
                       entity_key: object = None) -> List[Point]:
        """Geometric waypoints for the route: centroids joined via doors.

        This is the representation a floor-map CAA (Figure 3's pathApp)
        renders.
        """
        rooms, _ = self.route(from_room, to_room, entity_key)
        waypoints = [self.room_centroid(rooms[0])]
        for door in self.topology.path_doors(rooms, entity_key):
            waypoints.append(self._door_positions.get(
                door.door_id, waypoints[-1]))
        waypoints.append(self.room_centroid(rooms[-1]))
        return waypoints

    def walking_distance(self, from_room: str, to_room: str,
                         entity_key: object = None) -> float:
        """Polyline length of the accessible route; inf when unreachable."""
        try:
            return path_length(self.route_polyline(from_room, to_room, entity_key))
        except LocationError:
            return float("inf")

    def __repr__(self) -> str:
        return (
            f"BuildingModel({self.building_name!r}: rooms={len(self._rooms)}, "
            f"doors={len(self.topology.doors())}, aps={len(self.signal_map)})"
        )


def livingstone_tower() -> BuildingModel:
    """The synthetic Livingstone Tower used throughout the reproduction.

    Layout (Level 10, metres):

    * a lift lobby feeding a long corridor,
    * offices ``L10.01`` (Bob) and ``L10.02`` (John) off the corridor,
    * a print room ``L10.03`` (printers P1, P2), an open area (P4) and a
      locked store room ``L10.05`` (P3),
    * W-LAN base stations in the lobby and mid-corridor.

    All doors carry sensors (named ``sensor:<door-id>``) so the Figure-3
    doorSensorCE layer can be instantiated mechanically from the model.
    """
    building = BuildingModel("strathclyde", "livingstone")
    level10 = building.add_floor("L10")
    lobby_floor = building.add_floor("L1")

    building.add_room("lobby", Rect(0, 0, 10, 10), lobby_floor)
    building.add_room("corridor", Rect(10, 0, 40, 4), level10)
    building.add_room("L10.01", Rect(10, 4, 8, 6), level10)   # Bob's office
    building.add_room("L10.02", Rect(18, 4, 8, 6), level10)   # John's office
    building.add_room("L10.03", Rect(26, 4, 8, 6), level10)   # print room: P1, P2
    building.add_room("open-area", Rect(34, 4, 10, 6), level10)  # P4
    building.add_room("L10.05", Rect(44, 4, 6, 6), level10)   # locked store: P3

    def door(room_a: str, room_b: str, x: float, y: float) -> Door:
        door_id = f"door:{room_a}--{room_b}"
        return building.add_door(
            room_a, room_b, position=Point(x, y),
            door_id=door_id, sensor_id=f"sensor:{door_id}",
        )

    door("lobby", "corridor", 10, 2)
    door("corridor", "L10.01", 14, 4)
    door("corridor", "L10.02", 22, 4)
    door("corridor", "L10.03", 30, 4)
    door("corridor", "open-area", 39, 4)
    door("corridor", "L10.05", 47, 4)

    building.add_base_station(BaseStation("ap-lobby", Point(5, 5)))
    building.add_base_station(BaseStation("ap-corridor", Point(30, 2)))
    return building
