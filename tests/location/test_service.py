"""Location Service: tracking, Where evaluation, routing, observers."""

import pytest

from repro.core.errors import LocationError
from repro.location.building import livingstone_tower
from repro.location.geometry import Point
from repro.location.language import parse_location
from repro.location.service import LocationService
from repro.net.transport import FunctionProcess


@pytest.fixture
def service(network, guids, building):
    return LocationService(guids.mint(), "host-a", network, building, "test")


class TestTracking:
    def test_update_by_room(self, service):
        fix = service.update("bob", room="L10.01")
        assert fix.room == "L10.01"
        assert service.building.room("L10.01").shape.contains(fix.point)

    def test_update_by_point(self, service):
        fix = service.update("bob", point=Point(14, 7))
        assert fix.room == "L10.01"

    def test_update_requires_something(self, service):
        with pytest.raises(LocationError):
            service.update("bob")

    def test_forget(self, service):
        service.update("bob", room="lobby")
        service.forget("bob")
        assert service.locate("bob") is None

    def test_entities_in_place_hierarchy(self, service):
        service.update("bob", room="L10.01")
        service.update("john", room="L10.02")
        service.update("eve", room="lobby")
        assert set(service.entities_in("L10")) == {"bob", "john"}

    def test_observer_fired_with_previous_room(self, service):
        seen = []
        service.observers.append(lambda fix, prev: seen.append((fix.room, prev)))
        service.update("bob", room="corridor")
        service.update("bob", room="L10.01")
        assert seen == [("corridor", None), ("L10.01", "corridor")]


class TestWhereEvaluation:
    def test_anywhere_matches_all_rooms(self, service):
        rooms = service.resolve_rooms(parse_location("anywhere"))
        assert set(rooms) == set(service.building.room_names())

    def test_room_expr(self, service):
        assert service.resolve_rooms(parse_location("room:L10.01")) == ["L10.01"]

    def test_within_floor(self, service):
        rooms = service.resolve_rooms(parse_location("within(room:L10)"))
        assert "L10.01" in rooms and "lobby" not in rooms

    def test_within_equals_the_per_room_containment_scan(self, service):
        building = service.building
        for place in building.hierarchy.all_places():
            scanned = [room for room in building.room_names()
                       if building.hierarchy.contains(place, room)]
            assert service.resolve_rooms(
                parse_location(f"within(room:{place})")) == scanned
        assert service.resolve_rooms(
            parse_location("within(room:lobby)")) == ["lobby"]
        with pytest.raises(LocationError):
            service.resolve_rooms(parse_location("within(room:ghost)"))

    def test_entity_expr_uses_fix(self, service):
        service.update("bob", room="L10.03")
        assert service.resolve_rooms(parse_location("entity:bob")) == ["L10.03"]

    def test_me_requires_owner(self, service):
        with pytest.raises(LocationError):
            service.resolve_point(parse_location("me"))

    def test_me_resolves_owner(self, service):
        service.update("bob", room="L10.01")
        point = service.resolve_point(parse_location("me"), owner="bob")
        assert service.building.room_at(point) == "L10.01"

    def test_unknown_entity_raises(self, service):
        with pytest.raises(LocationError):
            service.resolve_point(parse_location("entity:ghost"))

    def test_near_radius(self, service):
        rooms = service.resolve_rooms(parse_location("near(room:L10.01, 1)"))
        assert "L10.01" in rooms
        assert "L10.05" not in rooms

    def test_place_matches(self, service):
        expr = parse_location("within(room:L10)")
        assert service.place_matches(expr, "L10.02")
        assert not service.place_matches(expr, "lobby")


class TestRouting:
    def test_route_between_entities(self, service):
        service.update("bob", room="L10.01")
        service.update("john", room="L10.02")
        rooms, polyline = service.route_between(parse_location("entity:bob"),
                                                parse_location("entity:john"))
        assert rooms == ["L10.01", "corridor", "L10.02"]
        assert len(polyline) >= 3

    def test_distance_between(self, service):
        service.update("bob", room="L10.01")
        distance = service.distance_between(parse_location("entity:bob"),
                                            parse_location("room:L10.02"))
        assert 0 < distance < float("inf")


class TestEventIngestion:
    def test_location_event_updates_fix(self, network, guids, service):
        from repro.core.types import TypeSpec
        from repro.events.event import ContextEvent
        sender = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        event = ContextEvent(TypeSpec("location", "topological", "bob"),
                             "L10.02", sender.guid, 1.0)
        sender.send(service.guid, "event", {"event": event.to_wire(),
                                            "subs": [[1, 1]]})
        network.scheduler.run_until_idle()
        assert service.locate("bob").room == "L10.02"

    def test_presence_event_updates_fix(self, network, guids, service):
        from repro.core.types import TypeSpec
        from repro.events.event import ContextEvent
        sender = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        event = ContextEvent(TypeSpec("presence", "tag-read", "bob"),
                             {"entity": "bob", "from": "corridor",
                              "to": "L10.03", "door": "d"},
                             sender.guid, 1.0)
        sender.send(service.guid, "event", {"event": event.to_wire(),
                                            "subs": [[1, 1]]})
        network.scheduler.run_until_idle()
        assert service.locate("bob").room == "L10.03"

    def test_geometric_event_updates_fix(self, network, guids, service):
        from repro.core.types import TypeSpec
        from repro.events.event import ContextEvent
        sender = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        event = ContextEvent(TypeSpec("location", "geometric", "bob"),
                             (14.0, 7.0), sender.guid, 1.0)
        sender.send(service.guid, "event", {"event": event.to_wire(),
                                            "subs": [[1, 1]]})
        network.scheduler.run_until_idle()
        assert service.locate("bob").room == "L10.01"
