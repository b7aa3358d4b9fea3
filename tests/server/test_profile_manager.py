"""Profile Manager: access, search and update over the Registrar's records."""

import pytest

from repro.core.types import TypeSpec
from repro.entities.advertisement import Advertisement
from repro.entities.profile import EntityClass, Profile
from repro.net.transport import FunctionProcess
from repro.server.profile_manager import ProfileManager
from repro.server.registrar import RegistrationRecord, Registrar


@pytest.fixture
def registrar(network, guids):
    return Registrar(guids.mint(), "host-a", network, "test-range",
                     context_server=guids.mint(), event_mediator=guids.mint())


@pytest.fixture
def manager(network, guids, registrar):
    pm = ProfileManager(guids.mint(), "host-a", network, registrar,
                        "test-range")
    printer = Profile(guids.mint(), "P1", EntityClass.DEVICE,
                      outputs=[TypeSpec("printer-status", "record")],
                      attributes={"room": "L10.03", "device": "printer"})
    registrar.register_record(RegistrationRecord(
        profile=printer, kind="ce",
        advertisements=[Advertisement("print-service", ["print"])]))
    sensor = Profile(guids.mint(), "door-1", EntityClass.DEVICE,
                     outputs=[TypeSpec("presence", "tag-read")])
    registrar.register_record(RegistrationRecord(profile=sensor, kind="ce"))
    return pm, printer, sensor


class TestStorage:
    def test_get_by_hex(self, manager):
        pm, printer, _ = manager
        assert pm.get(printer.entity_id.hex) is printer

    def test_get_by_name(self, manager):
        pm, printer, _ = manager
        assert pm.by_name("P1") is printer
        assert pm.by_name("nope") is None

    def test_remove(self, manager, registrar):
        """A departed component is no longer served."""
        pm, printer, _ = manager
        assert registrar.remove(printer.entity_id.hex, "deregistered")
        assert pm.get(printer.entity_id.hex) is None
        assert pm.by_name("P1") is None
        assert pm.advertisements_of(printer.entity_id.hex) == []
        assert pm.population() == 1
        assert not pm.update_attributes(printer.entity_id.hex, {"a": 1})

    def test_population(self, manager):
        pm, _, _ = manager
        assert pm.population() == 2

    def test_update_attributes(self, manager):
        pm, printer, _ = manager
        assert pm.update_attributes(printer.entity_id.hex, {"color": True})
        assert printer.attributes["color"] is True
        assert not pm.update_attributes("ff" * 32, {})


class TestRemoteAccess:
    def test_profile_request_by_name(self, network, guids, manager):
        pm, printer, _ = manager
        replies = []
        asker = FunctionProcess(guids.mint(), "host-b", network, replies.append)
        asker.send(pm.guid, "profile-request", {"name": "P1"})
        network.scheduler.run_for(5)
        payload = replies[0].payload
        assert payload["found"] is True
        assert payload["profile"]["name"] == "P1"
        assert payload["advertisements"][0]["service_name"] == "print-service"

    def test_profile_request_missing(self, network, guids, manager):
        pm, _, _ = manager
        replies = []
        asker = FunctionProcess(guids.mint(), "host-b", network, replies.append)
        asker.send(pm.guid, "profile-request", {"name": "ghost"})
        network.scheduler.run_for(5)
        assert replies[0].payload["found"] is False

    def test_profile_update_remote(self, network, guids, manager):
        pm, printer, _ = manager
        replies = []
        asker = FunctionProcess(guids.mint(), "host-b", network, replies.append)
        asker.send(pm.guid, "profile-update",
                   {"entity": printer.entity_id.hex,
                    "attributes": {"paper": "A4"}})
        network.scheduler.run_for(5)
        assert replies[0].payload["ok"] is True
        assert printer.attributes["paper"] == "A4"

    def test_profile_update_with_bad_attributes_refused(self, network, guids,
                                                        manager):
        # one bad message must not end the run for every host
        pm, printer, _ = manager
        replies = []
        asker = FunctionProcess(guids.mint(), "host-b", network, replies.append)
        asker.send(pm.guid, "profile-update",
                   {"entity": printer.entity_id.hex, "attributes": "paper"})
        network.scheduler.run_for(5)
        assert [(m.kind, m.payload["ok"]) for m in replies] == \
            [("profile-update-ack", False)]
        assert "attributes" in replies[0].payload["error"]
        assert "paper" not in printer.attributes and pm.updates == 0
