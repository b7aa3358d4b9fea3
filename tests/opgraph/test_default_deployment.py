"""The operator graph is what a default deployment runs.

Two guards on the engine collapse. A range mediator built with no dispatch
argument at all — the only kind there is — takes a continuous-query
subscription over the wire and delivers its aggregates, unsharded and
across a shard rebalance. And the constructors that used to select an
engine carry no such parameter, so the switch cannot quietly come back.
"""

from __future__ import annotations

import inspect

import pytest

from repro import SCI, SCIConfig
from repro.composition.resolver import QueryResolver
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.mediator import EventMediator
from repro.events.sharding import MediatorShard, ShardedEventMediator
from repro.net.transport import Process
from repro.server.context_server import ContextServer
from repro.server.range import RangeDefinition

WINDOW_QUERY = {
    "op": "window", "agg": "count", "width": 10.0,
    "source": {"op": "and", "parts": [
        {"op": "type", "type": "temperature", "representation": None},
        {"op": "subject", "subject": "room-0"}]}}


class WireClient(Process):
    """Subscribes and publishes through messages only; logs aggregates."""

    def __init__(self, guid, host_id, network, mediator_guid):
        super().__init__(guid, host_id, network, name="wire-client")
        self.mediator_guid = mediator_guid
        self.sub_id = None
        self.aggregates = []
        self.resync_acks = []

    def subscribe(self, query: dict) -> None:
        self.send(self.mediator_guid, "subscribe",
                  {"subscriber": self.guid.hex, "filter": {"op": "all"},
                   "query": query})

    def publish(self, timestamp: float) -> None:
        event = ContextEvent(TypeSpec("temperature", "raw", "room-0"), 21.5,
                             self.guid, timestamp)
        self.send(self.mediator_guid, "publish",
                  {"event": event.to_wire(), "ack": False})

    def on_message(self, message) -> None:
        if message.kind == "subscribe-ack":
            self.sub_id = message.payload["sub_id"]
        elif message.kind == "resync-ack":
            self.resync_acks.append(message.payload)
        elif message.kind == "event":
            if "seq" in message.payload:  # reliable mode expects an ack
                self.reply(message, "event-ack",
                           {"sub_id": message.payload["sub_id"]})
            wire = message.payload["event"]
            self.aggregates.append((wire["type"], wire["value"],
                                    wire["timestamp"]))


def _drive(network, mediator, guids, rebalance=None):
    network.ensure_host("wire-host")
    client = WireClient(guids.mint(), "wire-host", network, mediator.guid)
    client.subscribe(WINDOW_QUERY)
    network.scheduler.run_for(5)
    assert client.sub_id is not None
    client.publish(1.0)
    client.publish(2.0)
    network.scheduler.run_for(5)
    if rebalance is not None:
        rebalance()
        network.scheduler.run_for(5)
    client.publish(3.0)
    network.scheduler.run_for(5)
    client.publish(15.0)  # first event past the window's end closes it
    network.scheduler.run_for(5)
    return client


def test_default_range_mediator_delivers_window_query_over_the_wire():
    sci = SCI(config=SCIConfig(seed=31))
    server = sci.create_range("r", places=["L10"])
    assert type(server.mediator) is EventMediator
    client = _drive(sci.network, server.mediator, sci.guids)
    assert client.aggregates == [("opgraph-window-count", 3, 10.0)]
    assert server.mediator.opgraph_stats()["window_nodes"] == 1
    # a resync would replay raw retained events into a stream of derived
    # results, so the mediator refuses it for query subscriptions
    client.send(server.mediator.guid, "resync", {"sub_id": client.sub_id})
    sci.run(5)
    assert client.resync_acks == [{"ok": False, "sub_id": client.sub_id}]
    assert len(client.aggregates) == 1


def test_sharded_range_mediator_keeps_window_query_across_rebalance(
        network, guids, building, registry):
    definition = RangeDefinition("livingstone", places=["livingstone"],
                                 hosts=["host-a", "host-b"])
    server = ContextServer(guids.mint(), "host-a", network,
                           definition=definition, building=building,
                           registry=registry, guid_factory=guids,
                           mediator_shards=3)
    mediator = server.mediator
    assert isinstance(mediator, ShardedEventMediator)

    def rebalance():
        # grow, then drain the shard holding the window: its open state
        # must move with the subscription
        home = mediator.shard_id_for("temperature", "room-0")
        mediator.add_shard()
        mediator.remove_shard(home)

    client = _drive(network, mediator, guids, rebalance)
    # two events before the rebalance, one after: no loss, no duplication
    assert client.aggregates == [("opgraph-window-count", 3, 10.0)]
    assert mediator.opgraph_stats()["window_nodes"] == 1


@pytest.mark.parametrize("constructor", [EventMediator, MediatorShard,
                                         ShardedEventMediator, QueryResolver])
def test_no_engine_switch_on_constructors(constructor):
    parameters = inspect.signature(constructor).parameters
    assert not {"engine", "indexed"} & set(parameters)
