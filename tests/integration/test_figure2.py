"""Figure 2 end-to-end: one Range's components working in concert.

The figure depicts a Context Server managing Context Entities, Context
Utilities and Context Aware Applications within one range; this test drives
all six core utilities in a single scenario and checks their views agree.
"""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.query.model import QueryBuilder
from tests.recording import RecordingApp


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=29))
    sci.create_range("r", places=["livingstone"], hosts=["pc-a", "pc-b"])
    sci.add_door_sensors("r")
    sci.add_printers("r", {"P1": "L10.03"})
    sci.add_person("bob", room="corridor")
    app = sci.create_application("app", host="pc-b", app_class=RecordingApp)
    sci.run(5)
    return sci, app


class TestUtilitiesInConcert:
    def test_registrar_sees_everything(self, deployment):
        sci, app = deployment
        cs = sci.range("r")
        kinds = {record.kind for record in cs.registrar.records()}
        assert kinds == {"ce", "caa"}
        names = {record.profile.name for record in cs.registrar.records()}
        assert "app" in names and "P1" in names
        assert any(name.startswith("door-sensor") for name in names)

    def test_profile_manager_mirrors_registrar(self, deployment):
        sci, app = deployment
        cs = sci.range("r")
        assert cs.profiles.population() == cs.registrar.population()

    def test_range_services_cover_jurisdiction(self, deployment):
        sci, app = deployment
        cs = sci.range("r")
        assert {"cs-r", "pc-a", "pc-b"} <= set(cs.range_services)

    def test_location_service_fed_by_sensors(self, deployment):
        sci, app = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        cs = sci.range("r")
        fix = cs.location.locate("bob")
        assert fix is not None and fix.room == "L10.01"
        # the printer's position was seeded from its profile on arrival
        printer = cs.location.locate("P1")
        assert printer is not None
        assert cs.location.building.hierarchy.contains("L10", printer.room)

    def test_mediator_retains_latest_state(self, deployment):
        sci, app = deployment
        cs = sci.range("r")
        retained = cs.mediator.retained_event("printer-status", "record", "P1")
        assert retained is not None
        assert retained.value["state"] == "idle"

    def test_query_resolver_reaches_all_utilities(self, deployment):
        """One advertisement query touches the registrar (candidates), the
        location service (distance), the mediator (retained status) and the
        resolver plumbing."""
        sci, app = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        app.submit_query(QueryBuilder("bob").advertisement("printer")
                         .which("reachable; available; closest-to(me)")
                         .build())
        sci.run(10)
        result = app.results[-1]
        assert result["selected"]["name"] == "P1"
        assert result["selected"]["distance"] < float("inf")

    def test_shutdown_detaches_all_utilities(self, deployment):
        sci, app = deployment
        cs = sci.range("r")
        guids = [cs.guid, cs.mediator.guid, cs.registrar.guid,
                 cs.profiles.guid, cs.location.guid]
        cs.shutdown()
        for guid in guids:
            assert sci.network.process(guid) is None
