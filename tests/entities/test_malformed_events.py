"""A malformed ``event`` delivery is dropped, never raised.

A CAA and the Location Service both consume sequenced deliveries through a
reassembler. A delivery whose event does not parse is dropped where it is
parsed, after its seq was consumed, so the run goes on, the stream sees no
hole, and the next well-formed seq on that subscription is delivered.

A message whose ``subs`` is not a list of ``[int sub_id, seq]`` pairs
(``seq`` a non-bool int >= 1 or null) is dropped whole: nothing of it is
offered to the reassembler, acked, or counted as a gap.
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
                                       "subs": [[SUB_ID, 1]]})
    sender.send(target.guid, "event", {**bad, "subs": [[SUB_ID, 2]]})
    sender.send(target.guid, "event", {"event": _good(sender, "L10.02"),
                                       "subs": [[SUB_ID, 3]]})
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


#: ``subs`` values that drop a whole ``event`` message (None: key missing)
MALFORMED_SUBS = {
    "not-a-list": 5,
    "short-pair": [[1]],
    "unhashable-sub-id": [[[1], 1]],
    "bool-sub-id": [[True, 1]],
    "string-seq": [[SUB_ID, "x"]],
    "bool-seq": [[SUB_ID, True]],
    "zero-seq": [[SUB_ID, 0]],
    "missing": None,
}


def _bad_subs_stream(network, sender, target, subs, monkeypatch):
    """Send a well-formed event under a malformed ``subs``, then seqs 1 and
    2 well-formed; returns how many pairs were offered and acks noted."""
    counts = {"offered": 0, "noted": 0}
    offer, note = target.streams.offer, target.acks.note

    def counted_offer(*args):
        counts["offered"] += 1
        return offer(*args)

    def counted_note(*args):
        counts["noted"] += 1
        return note(*args)

    monkeypatch.setattr(target.streams, "offer", counted_offer)
    monkeypatch.setattr(target.acks, "note", counted_note)
    bad = {"event": _good(sender, "L10.99")}
    if subs is not None:
        bad["subs"] = subs
    sender.send(target.guid, "event", bad)
    for seq, room in ((1, "L10.01"), (2, "L10.02")):
        sender.send(target.guid, "event", {"event": _good(sender, room),
                                           "subs": [[SUB_ID, seq]]})
    network.scheduler.run_for(5)  # used to raise out of the scheduler
    assert network.scheduler.now >= 5
    return counts


@pytest.mark.parametrize("subs", MALFORMED_SUBS.values(),
                         ids=MALFORMED_SUBS.keys())
def test_caa_drops_an_event_with_malformed_subs(network, guids, monkeypatch,
                                                subs):
    app = ContextAwareApplication(
        Profile(entity_id=guids.mint(), name="app",
                entity_class=EntityClass.SOFTWARE), "host-a", network)
    sender = FunctionProcess(guids.mint(), "host-b", network, lambda m: None)
    counts = _bad_subs_stream(network, sender, app, subs, monkeypatch)
    assert [event.value for event in app.events] == ["L10.01", "L10.02"]
    assert counts == {"offered": 2, "noted": 2}
    assert app.streams.gaps_detected == 0


@pytest.mark.parametrize("subs", MALFORMED_SUBS.values(),
                         ids=MALFORMED_SUBS.keys())
def test_location_service_drops_an_event_with_malformed_subs(
        network, guids, building, monkeypatch, subs):
    service = LocationService(guids.mint(), "host-a", network, building, "r")
    rooms = []
    service.observers.append(lambda fix, previous: rooms.append(fix.room))
    sender = FunctionProcess(guids.mint(), "host-b", network, lambda m: None)
    counts = _bad_subs_stream(network, sender, service, subs, monkeypatch)
    assert rooms == ["L10.01", "L10.02"]
    assert counts == {"offered": 2, "noted": 2}
    assert service.streams.gaps_detected == 0
