"""A receiver that mutates a shared ``event`` payload is caught.

A mediator builds one wire event per publish and sends one ``event``
message per subscriber, so every subscriber of a publish holds the same
wire dict, and a retransmission resends the very payload it first sent.
The publish ledger entry keeps its own copy: a sealed entry must never
alias a dict a receiver holds. This runs a default range end to end (a
CAA, an objLocation CE fed by door sensors, the Location Service) plus a
look-alike mediator whose two subscribers each hold several look-alike
subscriptions, records the canonical JSON of every ``event`` payload as
it is sent, and requires each to encode the same once the run is over.
"""

import json

from repro import SCI
from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.events.filters import AndFilter, AttributeFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.ledger.replay import (live_snapshot, projection_snapshot,
                                 snapshot_digest)
from repro.net.transport import Network

canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def lookalike_filter():
    return AndFilter([TypeFilter("reading"), AttributeFilter("floor", "==", 3)])


def test_no_receiver_mutates_a_shared_payload(monkeypatch):
    sent = []  # (payload, its canonical JSON when sent)
    send = Network.send

    def recording_send(network, message):
        if message.kind == "event":
            sent.append((message.payload, canonical(message.payload)))
        send(network, message)

    monkeypatch.setattr(Network, "send", recording_send)
    sci = SCI()
    server = sci.create_range("livingstone", places=["livingstone"],
                              hosts=["lab-pc"])
    sci.add_door_sensors("livingstone")
    sci.add_person("bob", room="corridor")
    app = sci.create_application("whereIsBob", host="lab-pc")
    sci.run(5)
    app.submit_query(sci.query("bob").subscribe(
        "location", "topological", subject="bob").build())
    sci.run(5)

    lookalike = EventMediator(sci.guids.mint(), "lab-pc", sci.network,
                              "lookalike", reliable=True)
    subscribers = []
    for name in ("left", "right"):
        subscriber = ContextAwareApplication(
            Profile(sci.guids.mint(), name, entity_class=EntityClass.SOFTWARE),
            "lab-pc", sci.network)
        subscriber.attach_to_range(sci.guids.mint(), lookalike.guid,
                                   lookalike.guid, "lookalike")
        for event_filter in (lookalike_filter(), lookalike_filter(),
                             TypeFilter("reading")):
            lookalike.add_subscription(subscriber.guid, event_filter)
        subscribers.append(subscriber)
    for index in range(6):
        lookalike.publish(ContextEvent(
            TypeSpec("reading", "raw", f"sensor-{index % 2}"),
            {"level": index, "tags": ["a", "b"]}, lookalike.guid, sci.now,
            {"floor": 3 if index % 3 else 4}))

    sci.walk("bob", "L10.01")
    sci.run(30)
    sci.walk("bob", "L10.03")
    sci.run(40)

    assert app.last_event_value() == "L10.03"
    assert [len(subscriber.events) for subscriber in subscribers] == [14, 14]
    # the run did share: several subscriptions in one message, and one
    # wire dict in several messages
    assert any(len(payload["subs"]) > 1 for payload, _ in sent)
    wires = [id(payload["event"]) for payload, _ in sent]
    assert len(set(wires)) < len(wires)
    # no receiver wrote into a payload it shares with others
    assert all(canonical(payload) == body for payload, body in sent)
    # the ledger's copy is its own, and the books still replay
    for ledger in (server.ledger, lookalike.ledger):
        publishes = [entry for entry in ledger.entries()
                     if entry.kind == "publish" and entry.payload["deliveries"]]
        assert publishes
        assert not {id(entry.payload["event"]) for entry in publishes} \
            & set(wires)
        assert ledger.verify() == len(ledger)
    assert (snapshot_digest(projection_snapshot(server.ledger_projection()))
            == snapshot_digest(live_snapshot(server)))
