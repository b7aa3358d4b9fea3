"""A malformed ``event`` delivery is dropped, never raised.

A CAA and the Location Service both consume sequenced deliveries through a
reassembler. A delivery whose event does not parse is dropped where it is
parsed, after its seq was consumed, so the run goes on, the stream sees no
hole, and the next well-formed seq on that subscription is delivered.
"""

import pytest

from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.location.service import LocationService
from repro.net.transport import FunctionProcess

SUB_ID = 2

#: the body of a malformed delivery on ``SUB_ID``; seq is added per send
MALFORMED = {
    "non-object": {"event": 5},
    "missing-fields": {"event": {"type": "x"}},
    "no-event": {},
}


def _good(sender, room):
    return ContextEvent(TypeSpec("location", "topological", "bob"), room,
                        sender.guid, 1.0).to_wire()


def _stream(network, sender, target, bad):
    """Send seq 1 well-formed, seq 2 malformed, seq 3 well-formed."""
    sender.send(target.guid, "event", {"event": _good(sender, "L10.01"),
                                       "sub_id": SUB_ID, "seq": 1})
    sender.send(target.guid, "event", {**bad, "sub_id": SUB_ID, "seq": 2})
    sender.send(target.guid, "event", {"event": _good(sender, "L10.02"),
                                       "sub_id": SUB_ID, "seq": 3})
    network.scheduler.run_for(5)  # used to raise out of the scheduler
    assert network.scheduler.now >= 5


@pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED.keys())
def test_caa_drops_a_malformed_event(network, guids, monkeypatch, bad):
    app = ContextAwareApplication(
        Profile(entity_id=guids.mint(), name="app",
                entity_class=EntityClass.SOFTWARE), "host-a", network)
    sender = FunctionProcess(guids.mint(), "host-b", network, lambda m: None)
    parses = []
    from_wire = ContextEvent.from_wire.__func__
    monkeypatch.setattr(ContextEvent, "from_wire", classmethod(
        lambda cls, data: parses.append(data) or from_wire(cls, data)))
    _stream(network, sender, app, bad)
    assert [event.value for event in app.events] == ["L10.01", "L10.02"]
    assert app.streams.gaps_detected == 0
    # the well-formed deliveries were parsed once each
    assert sum(isinstance(data, dict) and "source" in data
               for data in parses) == 2


@pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED.keys())
def test_location_service_drops_a_malformed_event(network, guids, building,
                                                  bad):
    service = LocationService(guids.mint(), "host-a", network, building, "r")
    rooms = []
    service.observers.append(lambda fix, previous: rooms.append(fix.room))
    sender = FunctionProcess(guids.mint(), "host-b", network, lambda m: None)
    _stream(network, sender, service, bad)
    assert rooms == ["L10.01", "L10.02"]
    assert service.streams.gaps_detected == 0
