"""A malformed payload to any component is answered or dropped, never raised.

One row per payload that used to raise out of the scheduler and end the
run. A verb with a reply verb answers with ``ok``/``found`` False; a verb
without one (``set-param``, ``range-offer``, ``deregister``) drops the
message with a log line. Either way the run goes on, and the target's state
is what it was.
"""

import pytest

from repro import SCI, SCIConfig
from repro.net.transport import FunctionProcess

PROBE = "probe-host"


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
    return sci.query("app").profiles_of_type("device").build().to_wire()


#: the component each row sends to
TARGETS = {
    "printer": lambda sci: sci.printers["P1"],
    "app": lambda sci: sci.applications["app"],
    "registrar": lambda sci: sci.range("r").registrar,
    "profiles": lambda sci: sci.range("r").profiles,
    "cs": lambda sci: sci.range("r"),
}

#: (target, verb, payload, reply verb and the flag it must carry, or None)
CASES = [
    ("printer", "set-param", {"name": "undeclared", "value": 1}, None),
    ("printer", "set-param", {"value": 1}, None),
    ("app", "range-offer", {"range": "elsewhere"}, None),
    ("registrar", "heartbeat", {"entities": 5}, ("heartbeat-ack", "ok")),
    ("registrar", "heartbeat", {"entities": [[1]]}, ("heartbeat-ack", "ok")),
    ("registrar", "deregister", {"entity": [1]}, None),
    ("profiles", "profile-request", {"entity": [1]},
     ("profile-response", "found")),
    ("profiles", "profile-update", {"entity": [1], "attributes": {}},
     ("profile-update-ack", "ok")),
    ("cs", "query", {"query": "{query}", "subscriber": 5}, ("query-ack", "ok")),
    ("cs", "query", {"query": "{query}", "subscriber": "zz"},
     ("query-ack", "ok")),
    ("cs", "query", {"query": "{query}", "subscriber": None},
     ("query-ack", "ok")),
    ("printer", "service-invoke", {"operation": "print", "args": 5},
     ("service-result", "ok")),
]


def _state(sci):
    server = sci.range("r")
    return (server.registrar.population(),
            sci.applications["app"].registered,
            sci.printers["P1"].queue_length,
            len(server.ledger))


@pytest.mark.parametrize("target, verb, payload, answer", CASES,
                         ids=[f"{verb}-{index}" for index, (_, verb, _, _)
                              in enumerate(CASES)])
def test_malformed_payload_is_answered_or_dropped(deployment, target, verb,
                                                  payload, answer):
    sci, probe, replies = deployment
    before = _state(sci)
    payload = {key: (_query_wire(sci) if value == "{query}" else value)
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
