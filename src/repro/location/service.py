"""The Location Service Context Utility.

Section 3.1: "Location Service: Handles the resolution of location related
tasks." Concretely it (a) tracks the last-known location of every entity in
the range by consuming location events, (b) evaluates Where expressions of
the intermediate location language against candidate places, and (c) answers
distance/path questions for Which policies ("closest to me") and for the
Figure-3 path configuration.

It is a :class:`~repro.net.transport.Process` so that it can consume its
range mediator's event stream (and ask for a resync when the stream has a
hole); its co-located Context Server asks it questions through direct
methods.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.errors import LocationError
from repro.core.ids import GUID
from repro.events.stream import (AckBatcher, StreamKey, StreamReassembler,
                                 offer_event, request_resync)
from repro.location.building import BuildingModel
from repro.location.geometry import Point
from repro.location.language import LocationExpr
from repro.net.message import Message
from repro.net.rpc import RequestManager
from repro.net.transport import Network, Process

logger = logging.getLogger(__name__)


#: a wire event's fields the service reads, as one tuple
_event_fields = itemgetter("type", "value", "timestamp", "subject",
                           "representation")


@dataclass
class EntityFix:
    """Last-known location of one entity."""

    entity_key: str
    room: str
    point: Point
    timestamp: float


class LocationService(Process):
    """Per-range location tracking and Where-expression resolution."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 building: BuildingModel, range_name: str = ""):
        super().__init__(guid, host_id, network, name=f"location:{range_name or guid}")
        self.building = building
        self._fixes: Dict[str, EntityFix] = {}
        #: callbacks fired on every fix: (fix, previous_room) — the Context
        #: Server listens here for the "enters(entity, place)" When triggers
        self.observers: List = []
        # the mediator's sequenced stream is consumed like any subscriber's:
        # in order, once, acked cumulatively, resynced on loss
        self.requests = RequestManager(self)
        self.streams = StreamReassembler(
            self.scheduler, self._ingest_event,
            lambda key: request_resync(self, key),
            metrics=network.obs.metrics)
        self.acks = AckBatcher(self, self.streams)

    # -- tracking ---------------------------------------------------------------

    def update(self, entity_key: str, room: Optional[str] = None,
               point: Optional[Point] = None, timestamp: Optional[float] = None) -> EntityFix:
        """Record a location fix from a room name, a point, or both."""
        if room is None and point is None:
            raise LocationError("a fix needs a room or a point")
        if room is None:
            room = self.building.nearest_room(point)
        elif point is None:
            point = self.building.room_centroid(room)
        previous = self._fixes.get(entity_key)
        previous_room = previous.room if previous else None
        fix = EntityFix(entity_key, room, point,
                        self.now if timestamp is None else timestamp)
        self._fixes[entity_key] = fix
        for observer in list(self.observers):
            observer(fix, previous_room)
        return fix

    def forget(self, entity_key: str) -> None:
        """Drop tracking for a departed entity."""
        self._fixes.pop(entity_key, None)

    def locate(self, entity_key: str) -> Optional[EntityFix]:
        return self._fixes.get(entity_key)

    def entities_in(self, place: str) -> List[str]:
        """Entities whose last fix lies in ``place`` (or beneath it)."""
        return [
            key for key, fix in self._fixes.items()
            if self.building.hierarchy.contains(place, fix.room)
        ]

    # -- Where-expression evaluation ----------------------------------------------

    def resolve_point(self, expr: LocationExpr, owner: Optional[str] = None) -> Point:
        """Collapse an expression to a representative point."""
        if expr.kind == "room":
            return self.building.room_centroid(self._validated_room(expr.name))
        if expr.kind == "point":
            return Point(expr.point[0], expr.point[1])
        if expr.kind in ("entity", "me"):
            key = owner if expr.kind == "me" else expr.name
            if key is None:
                raise LocationError("'me' used without a query owner")
            fix = self.locate(key)
            if fix is None:
                raise LocationError(f"no known location for entity {key!r}")
            return fix.point
        if expr.kind in ("within", "near"):
            return self.resolve_point(expr.inner, owner)
        raise LocationError(f"expression has no point: {expr}")

    def resolve_rooms(self, expr: LocationExpr, owner: Optional[str] = None) -> List[str]:
        """All rooms satisfying the expression (empty only for dead regions)."""
        if expr.kind == "anywhere":
            return self.building.room_names()
        if expr.kind == "near":
            centre = self.resolve_point(expr.inner, owner)
            return [
                spec.name for spec in self.building.rooms()
                if spec.shape.distance_to_point(centre) <= expr.radius
            ]
        if expr.kind == "within":
            return self._rooms_within(expr.inner, owner)
        # point-like expressions resolve to the single containing room
        return [self.building.nearest_room(self.resolve_point(expr, owner))]

    def _rooms_within(self, inner: LocationExpr, owner: Optional[str]) -> List[str]:
        if inner.kind == "room":
            # raises LocationError for a place the hierarchy does not know
            within = {inner.name,
                      *self.building.hierarchy.descendants(inner.name)}
            return [name for name in self.building.room_names()
                    if name in within]
        return self.resolve_rooms(inner, owner)

    def place_matches(self, expr: LocationExpr, room: str,
                      owner: Optional[str] = None) -> bool:
        """Does candidate ``room`` satisfy the Where expression?"""
        if expr.kind == "anywhere":
            return True
        return room in self.resolve_rooms(expr, owner)

    # -- distance / routing ---------------------------------------------------------

    def distance_between(self, expr_a: LocationExpr, expr_b: LocationExpr,
                         owner: Optional[str] = None,
                         entity_key: object = None) -> float:
        """Walking distance between two expressions (inf if unreachable)."""
        room_a = self.building.nearest_room(self.resolve_point(expr_a, owner))
        room_b = self.building.nearest_room(self.resolve_point(expr_b, owner))
        return self.building.walking_distance(room_a, room_b, entity_key)

    def route_between(self, expr_a: LocationExpr, expr_b: LocationExpr,
                      owner: Optional[str] = None,
                      entity_key: object = None) -> Tuple[List[str], List[Point]]:
        """Room sequence plus geometric polyline between two expressions."""
        room_a = self.building.nearest_room(self.resolve_point(expr_a, owner))
        room_b = self.building.nearest_room(self.resolve_point(expr_b, owner))
        rooms, _ = self.building.route(room_a, room_b, entity_key)
        polyline = self.building.route_polyline(room_a, room_b, entity_key)
        return rooms, polyline

    def _validated_room(self, name: str) -> str:
        if not self.building.hierarchy.known(name):
            raise LocationError(f"unknown place: {name!r}")
        return name

    # -- message protocol --------------------------------------------------------------

    def _handle_event(self, message: Message) -> None:
        """Fold a location or presence event into tracking.

        The service subscribes to both: ``location`` events from location
        providers, and raw door-sensor ``presence`` events — a tagged person
        crossing a sensed door is the range's primary movement signal, and
        keeping it here is what lets the Context Server evaluate
        ``enters(entity, place)`` triggers and ``closest-to(me)`` policies
        without per-person tracking configurations.

        Deliveries pass through the same reassembler and cumulative acks
        as a component's; a hole is resynced with the mediator that sent
        the stream.
        """
        offer_event(self, message, _event_fields)

    def _ingest_event(self, key: StreamKey, fields: Optional[tuple]) -> None:
        """One in-order event's ``_event_fields``: a fix older than the
        one already tracked (a resync replaying retained state, a slower
        source) is ignored rather than rolling the entity back. None is an
        event that did not parse, dropped here after its seq was consumed."""
        if fields is None:
            return
        type_name, value, timestamp, subject, representation = fields
        if type_name == "presence" and isinstance(value, dict):
            to_room = value.get("to")
            entity = value.get("entity")
            if to_room and entity:
                try:
                    self._ingest(str(entity), room=to_room,
                                 timestamp=timestamp)
                except LocationError as exc:
                    logger.warning("%s could not ingest presence %s: %s",
                                   self.name, value, exc)
            return
        if type_name != "location" or subject is None:
            return
        try:
            if representation in ("topological", "symbolic"):
                room = str(value).rsplit("/", 1)[-1]
                self._ingest(str(subject), room=room, timestamp=timestamp)
            elif representation == "geometric":
                self._ingest(str(subject), point=Point(value[0], value[1]),
                             timestamp=timestamp)
        except LocationError as exc:
            logger.warning("%s could not ingest %s: %s", self.name, fields, exc)

    def _ingest(self, entity_key: str, room: Optional[str] = None,
                point: Optional[Point] = None,
                timestamp: Optional[float] = None) -> Optional[EntityFix]:
        """Fold an event-borne fix in unless a newer one is already held."""
        current = self._fixes.get(entity_key)
        if (current is not None and timestamp is not None
                and timestamp < current.timestamp):
            logger.debug("%s dropping stale fix for %s (%.2f < %.2f)",
                         self.name, entity_key, timestamp, current.timestamp)
            return None
        return self.update(entity_key, room=room, point=point,
                           timestamp=timestamp)
