"""World simulation: movement, door events, device positions."""

import pytest

from repro.core.errors import LocationError, SCIError
from repro.location.geometry import Point
from repro.mobility.world import World
from repro.net.sim import Scheduler


@pytest.fixture
def world(building):
    return World(building, Scheduler())


class TestPopulation:
    def test_add_entity_at_room_centroid(self, world):
        entity = world.add_entity("bob", "L10.01")
        assert entity.position == world.building.room_centroid("L10.01")

    def test_duplicate_rejected(self, world):
        world.add_entity("bob", "lobby")
        with pytest.raises(SCIError):
            world.add_entity("bob", "lobby")

    def test_unknown_room_rejected(self, world):
        with pytest.raises(Exception):
            world.add_entity("bob", "narnia")

    def test_outdoor_entity_has_no_room(self, world):
        entity = world.add_outdoor_entity("bob", Point(-10, -10))
        assert entity.room == ""

    def test_device_positions_only_device_carriers(self, world):
        world.add_entity("bob", "lobby", device_host="bob-pda")
        world.add_entity("john", "lobby")
        assert set(world.device_positions()) == {"bob"}


class TestMovement:
    def test_walk_updates_room_over_time(self, world):
        world.add_entity("bob", "corridor", speed=2.0)
        eta = world.walk_to("bob", "L10.01")
        assert world.entity("bob").room == "corridor"  # not yet
        world.scheduler.run_until(eta + 0.1)
        assert world.entity("bob").room == "L10.01"
        assert not world.entity("bob").moving

    def test_walk_multi_room_route(self, world):
        world.add_entity("bob", "lobby", speed=5.0)
        eta = world.walk_to("bob", "L10.03")
        world.scheduler.run_until(eta + 0.1)
        assert world.entity("bob").room == "L10.03"

    def test_room_change_callbacks_in_order(self, world):
        changes = []
        world.on_room_change.append(
            lambda entity, old, new: changes.append((old, new)))
        world.add_entity("bob", "lobby", speed=5.0)
        eta = world.walk_to("bob", "L10.01")
        world.scheduler.run_until(eta + 0.1)
        assert changes == [("lobby", "corridor"), ("corridor", "L10.01")]

    def test_arrival_callback(self, world):
        arrived = []
        world.on_arrival.append(lambda entity, room: arrived.append(room))
        world.add_entity("bob", "corridor", speed=5.0)
        eta = world.walk_to("bob", "L10.02")
        world.scheduler.run_until(eta + 0.1)
        assert arrived == ["L10.02"]

    def test_same_room_walk_arrives_immediately(self, world):
        arrived = []
        world.on_arrival.append(lambda entity, room: arrived.append(room))
        world.add_entity("bob", "lobby")
        world.walk_to("bob", "lobby")
        assert arrived == ["lobby"]

    def test_new_walk_supersedes_old(self, world):
        world.add_entity("bob", "lobby", speed=5.0)
        world.walk_to("bob", "L10.05")
        world.scheduler.run_for(1)
        eta = world.walk_to("bob", "corridor")  # change of plan
        world.scheduler.run_until(eta + 30)
        assert world.entity("bob").room == "corridor"

    def test_outdoor_entity_cannot_walk(self, world):
        world.add_outdoor_entity("bob", Point(-10, -10))
        with pytest.raises(LocationError):
            world.walk_to("bob", "lobby")

    def test_teleport_no_room_change_events_for_doors(self, world):
        changes = []
        world.on_room_change.append(
            lambda entity, old, new: changes.append((old, new)))
        world.add_entity("bob", "lobby")
        world.teleport("bob", "L10.05")
        assert changes == [("lobby", "L10.05")]  # one jump, no door sequence

    def test_leave_building_cancels_the_walk_and_reports(self, world):
        changes, moves = [], []
        world.on_room_change.append(
            lambda entity, old, new: changes.append((old, new)))
        world.add_entity("bob", "lobby")
        world.on_move.append(lambda entity: moves.append(entity.position))
        world.walk_to("bob", "L10.01")
        world.scheduler.run_for(1)  # still short of the first door
        outside = Point(-40, -40)
        entity = world.leave_building("bob", outside)
        assert (entity.room, entity.position, entity.moving) == ("", outside, False)
        world.scheduler.run_for(60)  # the rest of the walk never happens
        assert entity.room == "" and entity.position == outside
        assert changes == [("lobby", "")]
        assert moves == [outside]
        with pytest.raises(LocationError):
            world.leave_building("bob", Point(5, 5))  # inside the lobby

    def test_every_position_write_fires_on_move(self, world):
        moves = []
        world.on_move.append(
            lambda entity: moves.append((entity.key, entity.position)))
        world.add_outdoor_entity("eve", Point(-10, -10))
        bob = world.add_entity("bob", "lobby")
        assert bob.order == 1
        world.teleport("bob", "corridor")
        eta = world.walk_to("bob", "L10.01")
        world.scheduler.run_until(eta + 1)
        building = world.building
        assert moves == [
            ("eve", Point(-10, -10)),
            ("bob", building.room_centroid("lobby")),
            ("bob", building.room_centroid("corridor")),
            ("bob", building.door_position("door:corridor--L10.01")),
            ("bob", building.room_centroid("L10.01")),
        ]

    def test_walk_respects_locked_doors(self, world):
        world.building.topology.door("door:corridor--L10.05").lock({"staff"})
        world.add_entity("bob", "corridor")
        with pytest.raises(LocationError):
            world.walk_to("bob", "L10.05")


class TestDoorSensors:
    def test_walk_fires_door_sensors(self, network, guids, world,
                                     deployed_range):
        server, sensors = deployed_range
        # share the scheduler so sensors and world agree on time
        world.scheduler = network.scheduler
        world.attach_door_sensors(sensors)
        world.add_entity("bob", "corridor", speed=5.0)
        eta = world.walk_to("bob", "L10.01")
        network.scheduler.run_until(eta + 5)
        sensor = sensors["door:corridor--L10.01"]
        assert sensor.detections == 1

    def test_untagged_entity_invisible_to_sensors(self, network, guids, world,
                                                  deployed_range):
        server, sensors = deployed_range
        world.scheduler = network.scheduler
        world.attach_door_sensors(sensors)
        world.add_entity("ghost", "corridor", has_tag=False, speed=5.0)
        eta = world.walk_to("ghost", "L10.01")
        network.scheduler.run_until(eta + 5)
        assert sensors["door:corridor--L10.01"].detections == 0
