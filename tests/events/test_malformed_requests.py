"""A malformed request to the Event Mediator is answered, never raised.

Every verb parses its payload before the mediator changes anything: a
missing field, a filter spec that does not compile, or an id that does not
parse is answered with that verb's ack carrying
``{"ok": False, "error": ...}``, the run goes on for every host, and the
subscription table, the ledger and the projection digest are what they
were.
"""

import pytest

from repro import SCI, SCIConfig
from repro.ledger.replay import (live_snapshot, projection_snapshot,
                                 snapshot_digest)
from repro.net.transport import FunctionProcess

PROBE = "probe-host"

#: (verb, payload, ack kind); ``{subscriber}`` is filled with the probe's hex
MALFORMED = [
    ("subscribe", {"subscriber": "{subscriber}", "filter": {"op": "bogus"}},
     "subscribe-ack"),
    ("subscribe", {"filter": {"op": "all"}}, "subscribe-ack"),
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


def test_a_query_key_is_served_as_a_plain_filter_subscription(deployment):
    """The mediator has one subscription form: a ``query`` key left in a
    ``subscribe`` payload is ignored like any other undeclared key."""
    sci, server, probe, replies = deployment
    count = server.mediator.subscription_count
    probe.send(server.mediator.guid, "subscribe",
               {"subscriber": probe.guid.hex,
                "filter": {"op": "type", "type": "presence",
                           "representation": None},
                "query": {"op": "window", "agg": "count", "width": 5.0}})
    sci.run(5)
    (ack,) = [reply for reply in replies if reply.kind == "subscribe-ack"]
    subscription = next(sub for sub in server.mediator.subscriptions()
                        if sub.sub_id == ack.payload["sub_id"])
    assert subscription.filter.to_spec()["type"] == "presence"
    assert server.mediator.subscription_count == count + 1
    assert (snapshot_digest(live_snapshot(server)) ==
            snapshot_digest(projection_snapshot(server.ledger_projection())))
