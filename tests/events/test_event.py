"""Context event semantics: wire round-trips, freshness, derivation."""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent


@pytest.fixture
def source_guid():
    return GuidFactory(seed=1).mint()


def make_event(source_guid, **overrides):
    defaults = dict(
        spec=TypeSpec.of("location", "topological", "bob",
                         quality={"accuracy": 2.0}),
        value="L10.01",
        source=source_guid,
        timestamp=10.0,
        attributes={"via_door": "d1"},
    )
    defaults.update(overrides)
    return ContextEvent(**defaults)


class TestWireForm:
    def test_round_trip(self, source_guid):
        event = make_event(source_guid)
        restored = ContextEvent.from_wire(event.to_wire())
        assert restored.spec == event.spec
        assert restored.value == event.value
        assert restored.source == event.source
        assert restored.timestamp == event.timestamp
        assert restored.attributes == event.attributes

    def test_wire_form_is_plain_data(self, source_guid):
        import json
        wire = make_event(source_guid).to_wire()
        assert json.loads(json.dumps(wire)) is not None

    def test_quality_survives(self, source_guid):
        restored = ContextEvent.from_wire(make_event(source_guid).to_wire())
        assert restored.spec.quality_map == {"accuracy": 2.0}


class TestSemantics:
    def test_accessors(self, source_guid):
        event = make_event(source_guid)
        assert event.type_name == "location"
        assert event.representation == "topological"
        assert event.subject == "bob"
