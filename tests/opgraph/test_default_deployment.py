"""The operator graph is what a default deployment runs, on one server.

Two guards on the engine and server collapses. A range mediator built with
no dispatch argument at all — the only kind there is — takes a
continuous-query subscription over the wire and delivers its aggregates.
And the constructors that used to select an engine, an index or a shard
count carry no such parameter, nor the options nothing set (the range
mediator's ``reliable_events``, the request manager's timeout, retry and
backoff defaults), and the sharded modules are gone, so none of them can
quietly come back.
"""

from __future__ import annotations

import importlib.util
import inspect

import pytest

from repro import SCI, SCIConfig
from repro.composition.profile_index import ProfileIndex
from repro.composition.resolver import QueryResolver
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.mediator import DEFAULT_ACK_TIMEOUT, EventMediator
from repro.ledger.ledger import ContextLedger
from repro.net.rpc import RequestManager
from repro.net.transport import Process
from repro.server.context_server import ContextServer

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
                  {"event": event.to_wire()})

    def on_message(self, message) -> None:
        if message.kind == "subscribe-ack":
            self.sub_id = message.payload["sub_id"]
        elif message.kind == "resync-ack":
            self.resync_acks.append(message.payload)
        elif message.kind == "event":
            if "seq" in message.payload:  # reliable mode expects a
                # cumulative ack; one stream in order, so its seq is the prefix
                self.send(message.sender, "event-ack",
                          {"acks": [[message.payload["sub_id"],
                                     message.payload["seq"]]]})
            wire = message.payload["event"]
            self.aggregates.append((wire["type"], wire["value"],
                                    wire["timestamp"]))


def _drive(network, mediator, guids):
    network.ensure_host("wire-host")
    client = WireClient(guids.mint(), "wire-host", network, mediator.guid)
    client.subscribe(WINDOW_QUERY)
    network.scheduler.run_for(5)
    assert client.sub_id is not None
    client.publish(1.0)
    client.publish(2.0)
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
    # the ack released the result: past the ack timeout nothing came twice
    sci.run(3 * DEFAULT_ACK_TIMEOUT)
    assert client.aggregates == [("opgraph-window-count", 3, 10.0)]
    assert server.mediator.unacked() == 0


#: constructor parameters that once selected an engine, an index, a
#: shard count or a shard's chain
GONE_SWITCHES = {"engine", "indexed", "shards", "owns", "mediator_shards",
                 "resolver_shards", "shard_hosts", "shard_rank",
                 "reliable_events", "default_timeout", "max_retries",
                 "backoff_factor", "jitter"}
#: constructors whose whole parameter list is pinned
EXACT = {RequestManager: ["owner"]}


@pytest.mark.parametrize("constructor", [EventMediator, QueryResolver,
                                         ProfileIndex, ContextServer,
                                         ContextLedger, RequestManager])
def test_no_engine_switch_on_constructors(constructor):
    parameters = inspect.signature(constructor).parameters
    assert not GONE_SWITCHES & set(parameters)
    assert list(parameters) == EXACT.get(constructor, list(parameters))


@pytest.mark.parametrize("module", ["repro.events.sharding",
                                    "repro.server.shard",
                                    "repro.composition.shard_index"])
def test_sharded_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None
