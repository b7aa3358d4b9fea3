"""The simulated physical world: entities, positions, walking, door events.

This is the substitution for the paper's physical deployment (DESIGN.md):
people wearing ID badges and carrying W-LAN devices move through the
building; crossing a sensed door fires that door's
:class:`~repro.entities.sensors.DoorSensorCE`; the W-LAN detector reads
device positions through :meth:`World.device_positions`. Movement is
scheduled on the simulation clock, so an entity's walk produces door events
at the times its legs actually cross each door.

:class:`World` is the only writer of an entity's ``room`` and ``position``,
and every write fires ``on_move``: that is what lets the boundary monitor
(:mod:`repro.mobility.detection`) look only at entities that moved.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.errors import LocationError, SCIError
from repro.entities.sensors import DoorSensorCE
from repro.location.building import BuildingModel
from repro.location.geometry import Point
from repro.net.sim import Scheduler

logger = logging.getLogger(__name__)


@dataclass
class PhysicalEntity:
    """A person or thing with a position in the world. Only :class:`World`
    writes ``room`` and ``position``: no ``on_move`` listener hears of others."""

    key: str
    room: str
    position: Point
    #: readable by door sensors (the paper's electronic ID badge)
    has_tag: bool = True
    #: the machine travelling with the entity (a PDA), if any
    device_host: Optional[str] = None
    #: walking speed, metres per simulated time unit
    speed: float = 1.4
    #: strictly increasing token; a new move cancels scheduled steps of the old
    move_token: int = 0
    moving: bool = False
    #: position in the world's insertion order (set by :class:`World`)
    order: int = 0


class World:
    """All physical state plus movement simulation for one deployment."""

    def __init__(self, building: BuildingModel, scheduler: Scheduler):
        self.building = building
        self.scheduler = scheduler
        self._entities: Dict[str, PhysicalEntity] = {}
        #: door_id -> sensor CE; deployments wire these in
        self.door_sensors: Dict[str, DoorSensorCE] = {}
        #: callbacks (entity, old_room, new_room) on every room change
        self.on_room_change: List[Callable[[PhysicalEntity, str, str], None]] = []
        #: callbacks (entity, room) when a walk completes
        self.on_arrival: List[Callable[[PhysicalEntity, str], None]] = []
        #: callbacks (entity) on every position write, new entities included
        self.on_move: List[Callable[[PhysicalEntity], None]] = []

    # -- population -----------------------------------------------------------------

    def add_entity(self, key: str, room: str, has_tag: bool = True,
                   device_host: Optional[str] = None,
                   speed: float = 1.4) -> PhysicalEntity:
        if key in self._entities:
            raise SCIError(f"duplicate world entity: {key!r}")
        if speed <= 0:
            raise SCIError(f"non-positive speed: {speed}")
        self.building.room(room)  # validate
        return self._insert(PhysicalEntity(
            key=key, room=room,
            position=self.building.room_centroid(room),
            has_tag=has_tag, device_host=device_host, speed=speed,
        ))

    def add_outdoor_entity(self, key: str, position: Point,
                           has_tag: bool = True,
                           device_host: Optional[str] = None,
                           speed: float = 1.4) -> PhysicalEntity:
        """An entity outside every room (Bob on the train)."""
        if key in self._entities:
            raise SCIError(f"duplicate world entity: {key!r}")
        return self._insert(PhysicalEntity(
            key=key, room="", position=position,
            has_tag=has_tag, device_host=device_host, speed=speed,
        ))

    def _insert(self, entity: PhysicalEntity) -> PhysicalEntity:
        entity.order = len(self._entities)
        self._entities[entity.key] = entity
        self._fire_move(entity)
        return entity

    def entity(self, key: str) -> PhysicalEntity:
        try:
            return self._entities[key]
        except KeyError:
            raise SCIError(f"unknown world entity: {key!r}") from None

    def entities(self) -> List[PhysicalEntity]:
        return list(self._entities.values())

    def device_positions(self) -> Dict[str, Point]:
        """Positions of entities carrying a device (the W-LAN's view)."""
        return {entity.key: entity.position
                for entity in self._entities.values()
                if entity.device_host is not None}

    def attach_door_sensors(self, sensors: Dict[str, DoorSensorCE]) -> None:
        self.door_sensors.update(sensors)

    # -- movement --------------------------------------------------------------------

    def teleport(self, key: str, room: str) -> PhysicalEntity:
        """Place an entity in a room with no walking and no door events
        (arriving from outside the instrumented area)."""
        self.building.room(room)
        return self._place(self.entity(key), room,
                           self.building.room_centroid(room))

    def leave_building(self, key: str, position: Point) -> PhysicalEntity:
        """Put an entity outside every room, with no walking and no door
        events — the inverse of :meth:`add_outdoor_entity`'s arrival."""
        if self.building.room_at(position) is not None:
            raise LocationError(f"{position} is inside the building")
        return self._place(self.entity(key), "", position)

    def _place(self, entity: PhysicalEntity, room: str,
               position: Point) -> PhysicalEntity:
        entity.move_token += 1  # cancel any walk in progress
        entity.moving = False
        old_room = entity.room
        entity.room = room
        entity.position = position
        if old_room != room:
            self._fire_room_change(entity, old_room, room)
        self._fire_move(entity)
        return entity

    def walk_to(self, key: str, target_room: str) -> float:
        """Start a walk; returns the estimated arrival time.

        The walk proceeds room by room along the accessible shortest route:
        each leg goes centroid -> door -> next centroid at the entity's
        speed; the door sensor (if any) fires at the moment of crossing.
        Issuing a new movement command cancels the remainder of the walk.
        """
        entity = self.entity(key)
        if not entity.room:
            raise LocationError(
                f"{key!r} is outside the building; teleport it to an entrance first")
        rooms, _ = self.building.route(entity.room, target_room,
                                       entity_key=key)
        doors = self.building.topology.path_doors(rooms, entity_key=key)
        entity.move_token += 1
        entity.moving = len(rooms) > 1
        token = entity.move_token
        when = self.scheduler.now
        for index, door in enumerate(doors):
            here = self.building.room_centroid(rooms[index])
            door_point = self.building.door_position(door.door_id)
            there = self.building.room_centroid(rooms[index + 1])
            to_door = here.distance_to(door_point) / entity.speed
            to_centre = door_point.distance_to(there) / entity.speed
            when += to_door
            self.scheduler.schedule_at(when, self._cross_door, entity, token,
                                       door.door_id, rooms[index],
                                       rooms[index + 1])
            when += to_centre
            self.scheduler.schedule_at(when, self._reach_centre, entity, token,
                                       rooms[index + 1],
                                       index == len(doors) - 1)
        if not doors:
            entity.moving = False
            for callback in list(self.on_arrival):
                callback(entity, target_room)
        return when

    def _cross_door(self, entity: PhysicalEntity, token: int,
                    door_id: str, from_room: str, to_room: str) -> None:
        if entity.move_token != token:
            return  # walk superseded
        entity.room = to_room
        entity.position = self.building.door_position(door_id)
        if entity.has_tag:
            sensor = self.door_sensors.get(door_id)
            if sensor is not None and sensor.registered:
                sensor.detect(entity.key, from_room, to_room)
        self._fire_room_change(entity, from_room, to_room)
        self._fire_move(entity)

    def _reach_centre(self, entity: PhysicalEntity, token: int,
                      room: str, final: bool) -> None:
        if entity.move_token != token:
            return
        entity.position = self.building.room_centroid(room)
        self._fire_move(entity)
        if final:
            entity.moving = False
            for callback in list(self.on_arrival):
                callback(entity, room)

    def _fire_room_change(self, entity: PhysicalEntity,
                          old_room: str, new_room: str) -> None:
        logger.debug("world: %s %s -> %s at t=%.2f", entity.key,
                     old_room or "<outside>", new_room or "<outside>",
                     self.scheduler.now)
        for callback in list(self.on_room_change):
            callback(entity, old_room, new_room)

    def _fire_move(self, entity: PhysicalEntity) -> None:
        for callback in list(self.on_move):
            callback(entity)
