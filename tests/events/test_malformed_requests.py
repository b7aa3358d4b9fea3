"""A malformed request to the Event Mediator is answered, never raised.

Every verb parses its payload before the mediator changes anything: a
missing field, a filter or query spec that does not compile, or an id that
does not parse is answered with that verb's ack carrying
``{"ok": False, "error": ...}``, the run goes on for every host, and the
subscription table, the ledger and the projection digest are what they
were.
"""

import pytest

from repro import SCI, SCIConfig
from repro.events.filters import MatchAll
from repro.ledger.replay import (live_snapshot, projection_snapshot,
                                 snapshot_digest)
from repro.net.transport import FunctionProcess
from repro.query.opgraph.specs import OpSpecError

PROBE = "probe-host"

#: (verb, payload, ack kind); ``{subscriber}`` is filled with the probe's hex
MALFORMED = [
    ("subscribe", {"subscriber": "{subscriber}", "filter": {"op": "bogus"}},
     "subscribe-ack"),
    ("subscribe", {"filter": {"op": "all"}}, "subscribe-ack"),
    ("subscribe", {"subscriber": "{subscriber}", "filter": {"op": "all"},
                   "query": {"op": "window"}}, "subscribe-ack"),
    ("unsubscribe", {}, "unsubscribe-ack"),
    ("publish", {}, "publish-ack"),
    ("publish", {"event": {"x": 1}}, "publish-ack"),
    ("unsubscribe-owner", {}, "unsubscribe-owner-ack"),
]


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=41))
    server = sci.create_range("r", places=["L10"])
    sci.add_door_sensors("r")
    sci.run(10)
    sci.network.ensure_host(PROBE)
    replies = []
    probe = FunctionProcess(sci.guids.mint(), PROBE, sci.network,
                            replies.append, name="probe")
    return sci, server, probe, replies


def _books(server):
    mediator = server.mediator
    return (mediator.subscription_count, len(server.ledger),
            snapshot_digest(live_snapshot(server)),
            snapshot_digest(projection_snapshot(server.ledger_projection())))


def _fill(payload, probe):
    return {key: (probe.guid.hex if value == "{subscriber}" else value)
            for key, value in payload.items()}


@pytest.mark.parametrize("verb, payload, ack_kind", MALFORMED,
                         ids=[f"{verb}-{index}" for index, (verb, _, _)
                              in enumerate(MALFORMED)])
def test_malformed_request_gets_an_error_ack_and_changes_nothing(
        deployment, verb, payload, ack_kind):
    sci, server, probe, replies = deployment
    before = _books(server)
    start = sci.network.scheduler.now
    probe.send(server.mediator.guid, verb, _fill(payload, probe))
    sci.run(5)  # used to raise out of the scheduler and end the run
    assert sci.network.scheduler.now >= start + 5
    assert [(reply.kind, reply.payload["ok"]) for reply in replies] == \
        [(ack_kind, False)]
    assert replies[0].payload["error"]
    assert _books(server) == before


def test_a_bad_query_installs_nothing(deployment):
    """The plan compiles before the subscription is stored or ledgered."""
    sci, server, probe, _ = deployment
    before = _books(server)
    with pytest.raises(OpSpecError):
        server.mediator.add_subscription(
            probe.guid, MatchAll(), query={"op": "window", "agg": "avg"})
    assert _books(server) == before
    # and the range still takes a good one afterwards
    server.mediator.add_subscription(
        probe.guid, MatchAll(),
        query={"op": "window", "agg": "avg", "width": 5.0,
               "source": {"op": "type", "type": "presence",
                          "representation": None}})
    assert server.mediator.subscription_count == before[0] + 1
