"""Derived (mid-graph) Context Entities.

These are the aggregation layer of Figure 3: entities whose profiles declare
both inputs and outputs, so the Query Resolver can chain them between
sensors and applications. ``ObjectLocationCE`` and ``PathCE`` are the
paper's own examples; ``ConverterCE`` is the representation bridge the
resolver splices automatically; ``OccupancyCE`` and ``WindowAggregatorCE``
are further aggregators used by examples and tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.ids import GUID
from repro.core.types import Converter, TypeSpec
from repro.entities.entity import ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.location.building import BuildingModel
from repro.core.errors import LocationError
from repro.net.transport import Network


class ObjectLocationCE(ContextEntity):
    """Turns door-sensor presence events into per-entity location.

    Figure 3: "An objLocationCE is found that takes an entity ID as an input
    and produces location information as an output. When this entity was
    added to the system it was set up to subscribe to all events emanating
    from door sensors." The entity ID is the ``subject`` parameter; presence
    events for other entities are ignored.
    """

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 name: str = "obj-location"):
        super().__init__(self.make_profile(guid, name), host_id, network)
        self.current_room: Optional[str] = None

    @staticmethod
    def make_profile(guid: GUID, name: str = "obj-location") -> Profile:
        """The profile of an instance, and of its template's prototype."""
        return Profile(
            entity_id=guid,
            name=name,
            entity_class=EntityClass.SOFTWARE,
            outputs=[TypeSpec.of("location", "topological",
                                 quality={"accuracy": 2.0})],
            inputs=[TypeSpec("presence", "tag-read")],
            params={"subject": "entity ID whose location is tracked",
                    "initial_room": "optional seed location"},
            attributes={"binding": {"kind": "subject", "params": ["subject"]}},
        )

    def on_param_set(self, name: str, value: Any) -> None:
        if name == "initial_room" and value:
            self.current_room = value
            self._publish_location()

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        if event.type_name != "presence":
            return
        subject = self.get_param("subject")
        if subject is None or event.value.get("entity") != subject:
            return
        self.current_room = event.value["to"]
        self._publish_location(upstream=event)

    def _publish_location(self, upstream: Optional[ContextEvent] = None) -> None:
        subject = self.get_param("subject")
        if subject is None or self.current_room is None:
            return
        attributes = {"derived_from": "door-sensors"}
        if upstream is not None:
            attributes["via_door"] = upstream.value.get("door")
        self.publish(
            TypeSpec("location", "topological", subject),
            self.current_room,
            attributes=attributes,
        )


class PathCE(ContextEntity):
    """Computes the route between two tracked entities.

    Figure 3's pathCE: "requires two locations as inputs" and produces path
    information. Whenever either endpoint's location changes, a new ``path``
    event is published — that is what keeps the pathApp's display current as
    John walks through doors.
    """

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 building: BuildingModel, name: str = "path-ce"):
        super().__init__(self.make_profile(guid, name), host_id, network)
        self.building = building
        self._known_rooms: Dict[str, str] = {}
        self.paths_published = 0

    @staticmethod
    def make_profile(guid: GUID, name: str = "path-ce") -> Profile:
        """The profile of an instance, and of its template's prototype."""
        return Profile(
            entity_id=guid,
            name=name,
            entity_class=EntityClass.SOFTWARE,
            outputs=[TypeSpec("path", "rooms")],
            inputs=[TypeSpec("location", "topological"),
                    TypeSpec("location", "topological")],
            params={"from_subject": "path origin entity",
                    "to_subject": "path destination entity"},
            attributes={"binding": {
                "kind": "pair",
                "params": ["from_subject", "to_subject"],
                "separator": "->",
                "bind_inputs": True,
            }},
        )

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        if event.type_name != "location" or event.subject is None:
            return
        room = str(event.value).rsplit("/", 1)[-1]
        self._known_rooms[str(event.subject)] = room
        self._maybe_publish()

    def _maybe_publish(self) -> None:
        origin = self.get_param("from_subject")
        target = self.get_param("to_subject")
        if origin is None or target is None:
            return
        origin_room = self._known_rooms.get(origin)
        target_room = self._known_rooms.get(target)
        if origin_room is None or target_room is None:
            return
        try:
            rooms, cost = self.building.route(origin_room, target_room)
            polyline = self.building.route_polyline(origin_room, target_room)
        except LocationError:
            return
        self.paths_published += 1
        self.publish(
            TypeSpec("path", "rooms", f"{origin}->{target}"),
            {
                "rooms": rooms,
                "polyline": [p.as_tuple() for p in polyline],
                "cost": cost,
                "from": origin,
                "to": target,
            },
        )


class ConverterCE(ContextEntity):
    """A representation bridge spliced into configurations by the resolver.

    Applies a registered converter chain to each input event and republishes
    the result under the target spec. Quality attributes are scaled by the
    chain's combined fidelity, so downstream Which policies see that
    converted data is coarser than native data.
    """

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 input_spec: TypeSpec, output_spec: TypeSpec,
                 chain: Sequence[Converter], name: Optional[str] = None):
        if not chain:
            raise ValueError("converter chain must not be empty")
        profile = Profile(
            entity_id=guid,
            name=name or f"convert:{input_spec.representation}->{output_spec.representation}",
            entity_class=EntityClass.SOFTWARE,
            outputs=[output_spec],
            inputs=[input_spec],
        )
        super().__init__(profile, host_id, network)
        self.chain = list(chain)
        self.fidelity = 1.0
        for converter in self.chain:
            self.fidelity *= converter.fidelity
        self.conversions = 0
        self.failures = 0

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        value = event.value
        try:
            for converter in self.chain:
                value = converter.apply(value)
        except Exception:  # noqa: BLE001 - conversion of live data may fail
            self.failures += 1
            return
        self.conversions += 1
        output = self.profile.outputs[0]
        attributes = dict(event.attributes)
        if "accuracy" in attributes and isinstance(attributes["accuracy"], (int, float)):
            attributes["accuracy"] = attributes["accuracy"] / max(self.fidelity, 1e-9)
        attributes["converted_by"] = self.profile.name
        self.publish(
            TypeSpec(output.type_name, output.representation, event.subject),
            value,
            attributes=attributes,
        )


class OccupancyCE(ContextEntity):
    """Counts entities currently located in one place.

    Consumes per-entity ``location[topological]`` events; publishes an
    ``occupancy`` count for its ``place`` parameter whenever it changes.
    """

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 building: BuildingModel, name: str = "occupancy"):
        super().__init__(self.make_profile(guid, name), host_id, network)
        self.building = building
        self._room_of: Dict[str, str] = {}
        self._last_count: Optional[int] = None

    @staticmethod
    def make_profile(guid: GUID, name: str = "occupancy") -> Profile:
        """The profile of an instance, and of its template's prototype."""
        return Profile(
            entity_id=guid,
            name=name,
            entity_class=EntityClass.SOFTWARE,
            outputs=[TypeSpec("occupancy", "count")],
            inputs=[TypeSpec("location", "topological")],
            params={"place": "the place whose occupancy is counted"},
            attributes={"binding": {"kind": "subject", "params": ["place"]}},
        )

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        if event.type_name != "location" or event.subject is None:
            return
        self._room_of[str(event.subject)] = str(event.value).rsplit("/", 1)[-1]
        self._maybe_publish()

    def current_count(self) -> Optional[int]:
        place = self.get_param("place")
        if place is None:
            return None
        hierarchy = self.building.hierarchy
        return sum(
            1 for room in self._room_of.values()
            if hierarchy.known(room) and hierarchy.contains(place, room)
        )

    def _maybe_publish(self) -> None:
        count = self.current_count()
        if count is None or count == self._last_count:
            return
        self._last_count = count
        self.publish(
            TypeSpec("occupancy", "count", self.get_param("place")),
            count,
        )


class WindowAggregatorCE(ContextEntity):
    """Sliding-window aggregation over a numeric event stream.

    A generic interpreter-style component (mean/min/max over the last N
    values) demonstrating that the composition model is not specific to
    location data.
    """

    OPERATIONS = {
        "mean": lambda values: sum(values) / len(values),
        "min": min,
        "max": max,
    }

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 input_spec: TypeSpec, operation: str = "mean",
                 window: int = 5, name: Optional[str] = None):
        if operation not in self.OPERATIONS:
            raise ValueError(f"unknown operation {operation!r}; "
                             f"choose from {sorted(self.OPERATIONS)}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        output_spec = TypeSpec(input_spec.type_name,
                               f"{operation}-{input_spec.representation}")
        profile = Profile(
            entity_id=guid,
            name=name or f"{operation}:{input_spec.type_name}",
            entity_class=EntityClass.SOFTWARE,
            outputs=[output_spec],
            inputs=[input_spec],
        )
        super().__init__(profile, host_id, network)
        self.operation = operation
        self.window = window
        self._values: List[float] = []

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        if not isinstance(event.value, (int, float)):
            return
        self._values.append(float(event.value))
        if len(self._values) > self.window:
            self._values.pop(0)
        aggregate = self.OPERATIONS[self.operation](self._values)
        output = self.profile.outputs[0]
        self.publish(
            TypeSpec(output.type_name, output.representation, event.subject),
            round(aggregate, 4),
            attributes={"window": len(self._values)},
        )
