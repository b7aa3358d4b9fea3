"""The dedup window holds request/reply exchanges and nothing else.

Only two sends reuse a ``msg_id``: a requester's retransmission and a
receiver's re-send of the reply it cached. So ``Process.deliver`` remembers
a request whose row names a ``reply``, a reply (a row with a ``flag``) and
a kind the wire table does not declare, and handles a one-way verb without
touching the window. The register exchange below loses, then delays, its
ack: either way the component takes the range exactly once.
"""

import pytest

from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.net import rpc
from repro.net.message import Message
from repro.net.transport import FunctionProcess
from repro.net.wire import VERBS
from repro.server.registrar import Registrar
from tests.entities.test_entity import StubRangeService

#: a well-formed payload of each one-way verb the workloads send most
ONE_WAY = {
    "event": {"subs": [[1, 1]]},
    "heartbeat": {"entities": []},
    "o-bcast": {"bcast_id": "b-1", "kind": "announce-range", "body": {},
                "hops": 0, "until": "0" * 32},
}


def _pair(network, guids):
    heard = []
    receiver = FunctionProcess(guids.mint(), "host-a", network, heard.append)
    sender = FunctionProcess(guids.mint(), "host-b", network,
                             lambda message: None)
    return sender, receiver, heard


@pytest.mark.parametrize("kind", ONE_WAY)
def test_a_one_way_arrival_is_not_remembered(network, guids, kind):
    """Its row names no reply and no flag: handled, twice if sent twice
    under one id, and the window stays as it was."""
    sender, receiver, heard = _pair(network, guids)
    row = VERBS[kind]
    assert row.reply is None and row.flag is None
    first = sender.send(receiver.guid, kind, ONE_WAY[kind])
    network.send(Message(sender.guid, receiver.guid, kind,
                         dict(ONE_WAY[kind]), msg_id=first.msg_id))
    network.scheduler.run_until_idle()
    assert [message.kind for message in heard] == [kind, kind]
    assert not receiver._seen_messages
    assert network.obs.metrics.get("net.dedup.suppressed").total() == 0


def test_every_one_way_verb_leaves_the_window_alone(network, guids):
    """The rule is the row's, not a list of kinds: any payload of any
    one-way verb (refused or not) adds nothing."""
    sender, receiver, _ = _pair(network, guids)
    one_way = [kind for kind, row in VERBS.items()
               if row.reply is None and row.flag is None]
    assert set(ONE_WAY) <= set(one_way)
    for kind in one_way:
        sender.send(receiver.guid, kind, {})
    network.scheduler.run_until_idle()
    assert not receiver._seen_messages


@pytest.mark.parametrize("kind,payload", [
    ("resync", {"sub_id": 1}),          # a request that names a reply
    ("publish-ack", {"delivered": 1}),  # a reply: its row has a flag
    ("ask", {}),                        # no row: kept as before
])
def test_an_exchange_arrival_is_remembered_once(network, guids, kind,
                                                payload):
    sender, receiver, heard = _pair(network, guids)
    first = sender.send(receiver.guid, kind, payload)
    network.send(Message(sender.guid, receiver.guid, kind, dict(payload),
                         msg_id=first.msg_id))
    network.scheduler.run_until_idle()
    assert len(heard) == 1
    assert list(receiver._seen_messages) == [(sender.guid.value,
                                              first.msg_id)]
    assert network.obs.metrics.get("net.dedup.suppressed").total() == 1


def _register_through(network, guids, hold_first_ack):
    """One component registers with a Registrar whose first
    ``register-ack`` is handed to ``hold_first_ack(latency)``: it returns
    the latency to deliver it with, or None to lose it."""
    registrar = Registrar(guids.mint(), "host-a", network, "r",
                          context_server=guids.mint(),
                          event_mediator=guids.mint())
    service = StubRangeService(guids.mint(), "host-b", network)
    app = ContextAwareApplication(
        Profile(guids.mint(), "app", EntityClass.SOFTWARE), "host-b",
        network)
    acked = []
    take = app._register_acked
    app._register_acked = lambda reply, rs: (acked.append(reply.msg_id),
                                             take(reply, rs))
    schedule = network.scheduler.schedule_delivery
    acks = []

    def deliver(source, target, latency, fn, message, guid):
        if message.kind == "register-ack":
            acks.append(message.msg_id)
            if len(acks) == 1:
                latency = hold_first_ack(latency)
                if latency is None:
                    return None
        return schedule(source, target, latency, fn, message, guid)

    network.scheduler.schedule_delivery = deliver
    service.send(app.guid, "range-offer", {"range": "r",
                                           "registrar": registrar.guid.hex})
    network.scheduler.run_for(4 * rpc.DEFAULT_TIMEOUT)
    metrics = network.obs.metrics
    return {"registrar": registrar, "app": app, "service": service,
            "acked": acked, "acks": acks,
            "suppressed": metrics.get("net.dedup.suppressed").total(),
            "replayed": metrics.get("net.dedup.replayed_replies").total(),
            "unhandled": metrics.get("net.messages.unhandled").total()}


def test_a_lost_register_ack_is_replayed_from_the_cache(network, guids):
    """The retransmitted ``register`` is a duplicate at the Registrar, which
    re-sends its cached ack (same msg_id) instead of registering again."""
    run = _register_through(network, guids, lambda latency: None)
    assert run["registrar"].registrations == 1
    assert run["acks"] == [run["acks"][0]] * 2  # the original, its replay
    assert run["acked"] == run["acks"][:1]
    assert run["suppressed"] == 1 and run["replayed"] == 1
    assert run["unhandled"] == 0
    assert run["app"].registered and run["service"].members == [run["app"]]


def test_a_late_register_ack_is_dropped_as_a_duplicate(network, guids):
    """Delayed past the retry timeout, the original ack arrives after the
    replayed copy: the component's window drops it, so it is neither taken
    twice nor left over as an unhandled reply."""
    run = _register_through(
        network, guids, lambda latency: latency + rpc.DEFAULT_TIMEOUT + 10)
    assert run["registrar"].registrations == 1
    assert run["acks"] == [run["acks"][0]] * 2
    assert run["acked"] == run["acks"][:1]
    # the Registrar suppresses the retransmitted register (and replays),
    # the component the late original
    assert run["suppressed"] == 2 and run["replayed"] == 1
    assert run["unhandled"] == 0
    assert (run["app"]._seen_messages.keys()
            == {(run["registrar"].guid.value, run["acks"][0])})
    assert run["app"].registered and run["service"].members == [run["app"]]
