"""The SCI facade: deployment construction and conveniences."""

import pytest

from repro import SCI, SCIConfig
from repro.core.errors import SCIError
from tests.recording import RecordingApp


@pytest.fixture
def sci():
    return SCI(config=SCIConfig(seed=31))


class TestDeployment:
    def test_default_building_is_livingstone(self, sci):
        assert sci.building.building_name == "livingstone"
        assert "L10.01" in sci.building.room_names()

    def test_create_range_wires_everything(self, sci):
        server = sci.create_range("r", places=["L10"], hosts=["pc"])
        assert sci.range("r") is server
        assert sci.scinet.size() == 1
        # the peer lookup resolves the range's own rooms
        assert server.peer_lookup("L10.01") == server.guid.hex

    def test_duplicate_range_rejected(self, sci):
        sci.create_range("r", places=["L10"])
        with pytest.raises(SCIError):
            sci.create_range("r", places=["L1"])

    def test_unknown_range_rejected(self, sci):
        with pytest.raises(SCIError):
            sci.range("ghost")

    def test_sensors_limited_to_range_rooms(self, sci):
        sci.create_range("level10", places=["L10"])
        sensors = sci.add_door_sensors("level10")
        for sensor in sensors.values():
            assert (sci.range("level10").definition.governs_place(
                sci.building, sensor.room_a)
                or sci.range("level10").definition.governs_place(
                    sci.building, sensor.room_b))

    def test_printers_registered_in_range(self, sci):
        server = sci.create_range("r", places=["livingstone"])
        printers = sci.add_printers("r", {"PX": "L10.03"})
        sci.run(10)
        assert server.registrar.registered(printers["PX"].guid.hex)

    def test_monitor_singleton(self, sci):
        sci.create_range("r", places=["livingstone"])
        first = sci.start_boundary_monitor()
        assert sci.start_boundary_monitor() is first

    def test_late_range_joins_running_monitor(self, sci):
        sci.create_range("a", places=["L10"])
        monitor = sci.start_boundary_monitor()
        # in the lobby (the one room under L1) before any range governs it
        sci.add_person("eve", room="lobby", device_host="eve-pda")
        app = sci.create_application("app:eve", host="eve-pda", owner="eve")
        sci.run(5)
        assert monitor.range_of("eve") is None and not app.registered
        sci.create_range("b", places=["L1"])
        assert len(monitor.ranges) == 2
        sci.run(5)  # eve never moved: the new range itself must claim her
        assert monitor.range_of("eve") == "b"
        assert app.registered and app.range_name == "b"


class TestPeopleAndTime:
    def test_outdoor_person_has_no_room(self, sci):
        entity = sci.add_person("bob", room=None, device_host="pda")
        assert entity.room == ""
        assert "pda" in {h.host_id for h in sci.network.hosts}

    def test_run_advances_clock(self, sci):
        before = sci.now
        sci.run(12.5)
        assert sci.now == pytest.approx(before + 12.5)

    def test_determinism_across_instances(self):
        def trace(seed):
            sci = SCI(config=SCIConfig(seed=seed))
            sci.create_range("r", places=["livingstone"], hosts=["pc"])
            sci.add_door_sensors("r")
            sci.add_person("bob", room="corridor")
            app = sci.create_application("app", host="pc",
                                         app_class=RecordingApp)
            sci.run(5)
            app.submit_query(sci.query("ops")
                             .subscribe("location", "topological",
                                        subject="bob").build())
            sci.run(5)
            sci.walk("bob", "L10.01")
            sci.run(30)
            return [(e.timestamp, e.value) for e in app.events]

        assert trace(99) == trace(99)
        # different seeds may differ in timing jitter, but both deliver
        assert trace(98) and trace(99)

    def test_query_builder_shortcut(self, sci):
        query = sci.query("bob").profiles_of_type("printer").build()
        assert query.owner_id == "bob"
