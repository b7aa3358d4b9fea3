"""A malformed payload to any component is answered or dropped, never raised.

One row per payload that used to raise out of the scheduler and end the
run. A verb with a reply verb answers with ``ok``/``found`` False; a verb
without one (``deregistered``, ``range-offer``, ``deregister``, ``heartbeat``,
the SCINET ``o-route``/``o-bcast``/``o-delivery``, and the DHT and
directory bodies inside them) drops the message with a log line.
Either way the run goes on, and the target's state is what it was. A
``publish`` whose event the mediator could not hold (an unhashable
subject, a non-string type, a non-numeric timestamp) is refused before
anything is counted, and the range goes on tracking well-formed fixes.

A payload that is not a JSON object at all (a string, a number, a list)
never reaches a handler: the transport drops it, unanswered, and counts
it in ``net.messages.malformed{kind}``.
"""

import pytest

from repro import SCI, SCIConfig
from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.net.transport import FunctionProcess

PROBE = "probe-host"

#: a well-formed location fix, as a publisher sends it
FIX = ContextEvent(TypeSpec("location", "topological", "ghost"), "L10.01",
                   GuidFactory(seed=7).mint(), 20.0).to_wire()


def _fix(**fields):
    """A ``publish`` payload carrying :data:`FIX` with ``fields`` replaced."""
    return {"event": {**FIX, **fields}}


#: a well-formed profile of an entity not yet registered
PROFILE = Profile(GuidFactory(seed=9).mint(), "odd-badge", EntityClass.DEVICE,
                  outputs=[TypeSpec("location", "symbolic")],
                  inputs=[TypeSpec("presence", "tag-read")]).to_wire()


def _register(side, **fields):
    """A ``register`` payload carrying :data:`PROFILE` with ``fields``
    replaced in its first ``side`` spec."""
    return {"kind": "ce", "profile": {
        **PROFILE, side: [{**PROFILE[side][0], **fields}]}}


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=43))
    sci.create_range("r", places=["L10"], hosts=["lab-pc"])
    sci.add_door_sensors("r")
    sci.add_printers("r", {"P1": "L10.03"})
    sci.create_application("app", host="lab-pc")
    sci.run(10)
    sci.network.ensure_host(PROBE)
    replies = []
    probe = FunctionProcess(sci.guids.mint(), PROBE, sci.network,
                            replies.append, name="probe")
    return sci, probe, replies


def _query_wire(sci):
    return (sci.query("app").profiles_of_type("device").with_id("probe:1")
            .build().to_wire())


#: the component each row sends to
TARGETS = {
    "printer": lambda sci: sci.printers["P1"],
    "app": lambda sci: sci.applications["app"],
    "registrar": lambda sci: sci.range("r").registrar,
    "profiles": lambda sci: sci.range("r").profiles,
    "cs": lambda sci: sci.range("r"),
    "mediator": lambda sci: sci.range("r").mediator,
    "location": lambda sci: sci.range("r").location,
    "overlay": lambda sci: _overlay_node(sci),
}

def _bcast(kind, body):
    """An ``o-bcast`` envelope that parses, around ``body``."""
    return {"bcast_id": f"probe:1:{kind}", "kind": kind, "body": body,
            "hops": 0, "until": "{probe}"}


def _route(kind, body):
    """An ``o-route`` envelope that parses, keyed to the probe, around
    ``body``."""
    return {"key": "{probe}", "kind": kind, "body": body, "hops": 0,
            "origin": "{probe}"}


#: (target, verb, payload, reply verb and the flag it must carry or None,
#: id). The id is the row's own, so adding or removing a row renames no
#: other case; these rows keep the ids their positions once gave them.
CASES = [
    ("app", "deregistered", {"reason": 5}, None, "deregistered-0"),
    ("app", "deregistered", {"reason": ["spoofed"]}, None, "deregistered-1"),
    ("app", "range-offer", {"range": "elsewhere"}, None, "range-offer-2"),
    ("registrar", "heartbeat", {"entities": 5}, None, "heartbeat-3"),
    ("registrar", "heartbeat", {"entities": [[1]]}, None, "heartbeat-4"),
    ("registrar", "deregister", {"entity": [1]}, None, "deregister-5"),
    ("profiles", "profile-request", {"entity": [1]},
     ("profile-response", "found"), "profile-request-6"),
    ("profiles", "profile-update", {"entity": [1], "attributes": {}},
     ("profile-update-ack", "ok"), "profile-update-7"),
    ("cs", "query", {"query": "{query}", "subscriber": 5}, ("query-ack", "ok"),
     "query-8"),
    ("cs", "query", {"query": "{query}", "subscriber": "zz"},
     ("query-ack", "ok"), "query-9"),
    ("cs", "query", {"query": "{query}", "subscriber": None},
     ("query-ack", "ok"), "query-10"),
    ("printer", "service-invoke", {"operation": "print", "args": 5},
     ("service-result", "ok"), "service-invoke-11"),
    ("mediator", "publish", _fix(subject=[1]), ("publish-ack", "ok"),
     "publish-12"),
    ("mediator", "publish", _fix(subject={"a": 1}), ("publish-ack", "ok"),
     "publish-13"),
    ("mediator", "publish", _fix(type=[1]), ("publish-ack", "ok"),
     "publish-14"),
    ("mediator", "publish", _fix(representation=[1]), ("publish-ack", "ok"),
     "publish-15"),
    ("mediator", "publish", _fix(timestamp="x"), ("publish-ack", "ok"),
     "publish-16"),
    ("overlay", "o-route", {"kind": "dht-get", "body": {"name": "x"},
                            "hops": 0, "origin": "{probe}"}, None,
     "o-route-17"),
    ("overlay", "o-route", {"key": "zz", "kind": "dht-get",
                            "body": {"name": "x"}, "hops": 0,
                            "origin": "{probe}"}, None, "o-route-18"),
    ("overlay", "o-bcast", {}, None, "o-bcast-19"),
    ("overlay", "o-bcast", {"bcast_id": [1], "kind": "announce-range",
                            "body": {}, "hops": 0, "until": "{probe}"}, None,
     "o-bcast-20"),
    ("overlay", "o-delivery", {}, None, "o-delivery-21"),
    # the body inside a well-formed envelope: checked before it is applied
    ("overlay", "o-bcast", _bcast("announce-range", "x"), None, "o-bcast-22"),
    ("overlay", "o-bcast", _bcast("announce-range", {"cs": "cs-x",
                                                     "places": 5}), None,
     "o-bcast-23"),
    ("overlay", "o-bcast", _bcast("announce-range", {"cs": "cs-x",
                                                     "places": [[1]]}), None,
     "o-bcast-24"),
    ("overlay", "o-bcast", _bcast("announce-range", {"places": ["F9"]}), None,
     "o-bcast-25"),
    ("overlay", "o-bcast", _bcast("announce-range", {"cs": "cs-x",
                                                     "places": "F9"}), None,
     "o-bcast-26"),
    ("overlay", "o-bcast", _bcast("retract-range", {}), None, "o-bcast-27"),
    ("overlay", "o-route", _route("dht-put", "x"), None, "o-route-28"),
    ("overlay", "o-route", _route("dht-put", {"value": 1}), None,
     "o-route-29"),
    ("overlay", "o-route", _route("dht-put", {"name": [1], "value": 1}), None,
     "o-route-30"),
    ("overlay", "o-route", _route("dht-get", "x"), None, "o-route-31"),
    ("overlay", "o-route", _route("dht-get", {}), None, "o-route-32"),
    ("overlay", "o-route", _route("dht-get", {"name": [1]}), None,
     "o-route-33"),
    ("overlay", "o-route", _route("dht-put", {"name": "x"}), None,
     "o-route-34"),
    ("mediator", "publish", _fix(quality=[["accuracy", [1]]]),
     ("publish-ack", "ok"), "publish-quality-unhashable"),
    # a profile's specs pass the checks an event's spec does
    ("registrar", "register", _register("outputs", type=5),
     ("register-ack", "ok"), "register-output-type-int"),
    ("registrar", "register", _register("outputs", type=["location"]),
     ("register-ack", "ok"), "register-output-type-list"),
    ("registrar", "register", _register("outputs", representation=None),
     ("register-ack", "ok"), "register-output-representation-null"),
    ("registrar", "register", _register("inputs", representation=7),
     ("register-ack", "ok"), "register-input-representation-int"),
]


def _overlay_node(sci):
    return next(node for node in sci.scinet.nodes() if node.range_name == "r")


def _state(sci):
    server = sci.range("r")
    node = _overlay_node(sci)
    return (server.registrar.population(),
            sci.applications["app"].registered,
            sci.printers["P1"].queue_length,
            len(server.ledger),
            server.mediator.published,
            sci.network.obs.metrics.get("mediator.events.published").total(),
            node.routed, node.delivered, dict(node.directory))


@pytest.mark.parametrize("target, verb, payload, answer",
                         [row[:-1] for row in CASES],
                         ids=[row[-1] for row in CASES])
def test_malformed_payload_is_answered_or_dropped(deployment, target, verb,
                                                  payload, answer):
    sci, probe, replies = deployment
    before = _state(sci)
    fills = {"{query}": lambda: _query_wire(sci),
             "{probe}": lambda: probe.guid.hex}
    payload = {key: (fills[value]() if isinstance(value, str)
                     and value in fills else value)
               for key, value in payload.items()}
    start = sci.network.scheduler.now
    probe.send(TARGETS[target](sci).guid, verb, payload)
    sci.run(5)  # used to raise out of the scheduler and end the run
    assert sci.network.scheduler.now >= start + 5
    if answer is None:
        assert replies == []
    else:
        kind, flag = answer
        assert [(reply.kind, reply.payload[flag]) for reply in replies] == \
            [(kind, False)]
    assert _state(sci) == before
    if verb == "publish":
        # the range still tracks the next well-formed fix for the subject
        probe.send(TARGETS[target](sci).guid, "publish", {"event": FIX})
        sci.run(5)
        assert sci.range("r").location.locate("ghost").room == "L10.01"


#: (target, verb, payload): one row per handler that used to raise out of
#: the scheduler on a payload that is not an object
NON_OBJECT_CASES = [
    ("app", "event", "x"),
    ("printer", "event", 7),
    ("location", "event", [[1, 2]]),
    ("app", "query-result", "x"),
    ("printer", "service-invoke", [[1, 2]]),
    ("registrar", "deregister", "x"),
    ("registrar", "heartbeat", 7),
    ("profiles", "profile-request", [[1, 2]]),
    ("profiles", "profile-update", "x"),
    ("cs", "query", 7),
    ("cs", "cancel-query", [[1, 2]]),
    ("mediator", "resync", "x"),
]


@pytest.mark.parametrize("target, verb, payload", NON_OBJECT_CASES,
                         ids=[f"{target}-{verb}" for target, verb, _
                              in NON_OBJECT_CASES])
def test_non_object_payload_is_dropped_before_the_handler(deployment, target,
                                                          verb, payload):
    sci, probe, replies = deployment
    before = _state(sci)
    start = sci.network.scheduler.now
    probe.send(TARGETS[target](sci).guid, verb, payload)
    sci.run(5)  # used to raise out of the scheduler and end the run
    assert sci.network.scheduler.now >= start + 5
    assert replies == []
    assert _state(sci) == before
    malformed = sci.network.obs.metrics.get("net.messages.malformed")
    assert malformed.by_label() == {verb: 1}
