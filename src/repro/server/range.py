"""Range definitions (Section 3).

"A Range is defined as an area that can be described in logical and/or
physical terms ... bounded by a physical area (a collection of adjacent
rooms, an entire floor of a building) or by the effective operating range of
a particular network type." A definition names the symbolic places the range
governs and the machines in its jurisdiction; the physical/geometric extent
follows from the building model's room footprints, and a W-LAN-bounded range
can instead be defined by base-station coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.location.building import BuildingModel
from repro.location.geometry import Point


@dataclass
class RangeDefinition:
    """The static description of one range."""

    name: str
    #: symbolic places governed (a place implies all places beneath it)
    places: List[str]
    #: machines in the range's jurisdiction (Range Services deploy to these)
    hosts: List[str] = field(default_factory=list)
    #: base-station ids whose coverage bounds this range (W-LAN-style ranges)
    stations: List[str] = field(default_factory=list)

    def governs_place(self, building: BuildingModel, place: str) -> bool:
        """Is ``place`` (a room or area) inside this range?"""
        hierarchy = building.hierarchy
        if not hierarchy.known(place):
            return False
        return any(
            hierarchy.known(governed) and hierarchy.contains(governed, place)
            for governed in self.places
        )

    def governs_point(self, building: BuildingModel, point: Point) -> bool:
        """Is a physical position inside this range?

        True when the containing room is governed, or — for W-LAN-bounded
        ranges — when any of the range's base stations covers the point.
        """
        room = building.room_at(point)
        if room is not None and self.governs_place(building, room):
            return True
        for station_id in self.stations:
            station = building.signal_map.station(station_id)
            if station.rssi_at(point) is not None:
                return True
        return False

    def rooms(self, building: BuildingModel) -> List[str]:
        """All concrete rooms this range governs, in the building's order:
        the rooms at or beneath a governed place (what
        :meth:`governs_place` asks of one room), each governed subtree
        walked once."""
        hierarchy = building.hierarchy
        beneath = set()
        for place in self.places:
            if hierarchy.known(place):
                beneath.add(place)
                beneath.update(hierarchy.descendants(place))
        return [room for room in building.room_names() if room in beneath]

    def __str__(self) -> str:
        return f"Range({self.name}: places={self.places})"
