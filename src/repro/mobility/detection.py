"""Range boundary monitoring — arrival and departure detection.

Section 3.4: "each range monitors internal activity as well as activity at
its boundaries in order to detect the arrival and departure of entities. For
example, a user wearing an id tag arriving or leaving their range by walking
through a door equipped with a sensor for detecting id tags would be
discovered. Similarly a user with a W-LAN equipped device could be detected
leaving the effective operating range of a wireless network."

The :class:`BoundaryMonitor` samples on a timer (``scan_interval`` is the
sensing period) but evaluates only the entities the world moved since the
last tick, in world insertion order. A position belongs to the first range,
in creation order, governing the room ``building.room_at`` puts it in (a
room -> range map, filled on first sight of a room), else to the first
W-LAN-bounded range whose base stations cover it; the full-population scan
this replaced is ``tests/mobility/reference_scan.py``. On a transition it:

* asks the new range's Context Server to **admit** the entity's device host
  (its Range Service offers registration to the components on the machine —
  the CAPA lobby scenario), and
* asks the old range's Context Server to **expel** the components that
  registered from that host (after handing them off) and to
  **release** the host: the Range Service it deployed there is switched off.
"""

from __future__ import annotations

import logging
from operator import attrgetter
from typing import Dict, List, Optional

from repro.mobility.world import PhysicalEntity, World
from repro.net.sim import Timer
from repro.server.context_server import ContextServer

logger = logging.getLogger(__name__)


class BoundaryMonitor:
    """Watches world positions and drives range admission/expulsion."""

    def __init__(self, world: World, ranges: List[ContextServer], handoff,
                 scan_interval: float = 1.0):
        if scan_interval <= 0:
            raise ValueError(f"non-positive scan interval: {scan_interval}")
        self.world = world
        self.ranges: List[ContextServer] = []
        self.handoff = handoff
        self._by_name: Dict[str, ContextServer] = {}
        self._station_bounded: List[ContextServer] = []
        #: room -> the range governing it (None: nobody), filled on first sight
        self._range_at: Dict[str, Optional[ContextServer]] = {}
        #: device carriers whose position was written since the last tick
        self._moved: Dict[str, PhysicalEntity] = {}
        #: entity key -> range name it is currently attributed to (or None)
        self._range_of: Dict[str, Optional[str]] = {}
        self.transitions = 0
        #: entities whose governing range was worked out, over all ticks
        self.evaluated = 0
        for server in ranges:
            self.add_range(server)
        world.on_move.append(self._note)
        self._timer: Timer = world.scheduler.schedule_periodic(
            scan_interval, self.scan)

    def add_range(self, server: ContextServer) -> None:
        """A range joins, last in precedence. It can claim a place nobody
        governed, so every entity is looked at again on the next tick."""
        self.ranges.append(server)
        self._by_name.setdefault(server.definition.name, server)
        if server.definition.stations:
            self._station_bounded.append(server)
        self._range_at.clear()
        for entity in self.world.entities():
            self._note(entity)

    def stop(self) -> None:
        self._timer.cancel()
        if self._note in self.world.on_move:
            self.world.on_move.remove(self._note)

    def range_of(self, entity_key: str) -> Optional[str]:
        return self._range_of.get(entity_key)

    # -- scanning ---------------------------------------------------------------------

    def _note(self, entity: PhysicalEntity) -> None:
        if entity.device_host is not None:  # only these register components
            self._moved[entity.key] = entity

    def scan(self) -> int:
        """One sampling tick; returns the number of transitions detected."""
        moved, self._moved = self._moved, {}
        changed = 0
        for entity in sorted(moved.values(), key=attrgetter("order")):
            self.evaluated += 1
            current = self._governing_range(entity)
            previous = self._range_of.get(entity.key)
            current_name = current.definition.name if current else None
            if current_name == previous:
                continue
            changed += 1
            self.transitions += 1
            self._transition(entity, previous, current)
            self._range_of[entity.key] = current_name
        return changed

    def _governing_range(self, entity: PhysicalEntity) -> Optional[ContextServer]:
        """The range responsible for the entity's position.

        Room containment beats radio coverage: a W-LAN-bounded range (the
        lift lobby's base station) can overhear devices deep inside another
        range's rooms, but the room's own range governs there. Station
        coverage decides only where no room-based range claims the point.
        """
        building = self.world.building
        room = building.room_at(entity.position)
        if room is not None:
            try:
                server = self._range_at[room]
            except KeyError:
                server = self._range_at[room] = next(
                    (server for server in self.ranges
                     if server.definition.governs_place(building, room)), None)
            if server is not None:
                return server
        for server in self._station_bounded:
            if server.definition.governs_point(building, entity.position):
                return server
        return None

    def _transition(self, entity: PhysicalEntity,
                    previous_name: Optional[str],
                    current: Optional[ContextServer]) -> None:
        previous = self._by_name.get(previous_name)
        logger.info("boundary: %s %s -> %s", entity.key,
                    previous_name or "<no range>",
                    current.definition.name if current else "<no range>")
        if previous is not None:
            departing = [record for record in previous.registrar.records()
                         if record.host_id == entity.device_host]
            if current is not None:
                for record in departing:
                    self.handoff.carry(record, current)
            for record in departing:
                previous.expel_entity(record.entity_hex, reason="left-range")
            previous.retire_host(entity.device_host)
        if current is not None:
            current.admit_host(entity.device_host)

    # -- introspection -----------------------------------------------------------------

    def attribution(self) -> Dict[str, Optional[str]]:
        return dict(self._range_of)
