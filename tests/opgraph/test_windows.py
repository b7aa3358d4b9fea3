"""Windowed-aggregate edge cases through the mediator (satellite suite).

Empty windows, events exactly on window boundaries, and unsubscribe
mid-window (with and without a second subscription sharing the node).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events import subscription as subscription_module
from repro.events.event import ContextEvent
from repro.events.mediator import EventMediator
from repro.net.transport import FixedLatency, Network, Process

TYPE_SPEC = {"op": "type", "type": "temperature", "representation": None}


class Sink(Process):
    def __init__(self, guid, host_id, network):
        super().__init__(guid, host_id, network, name="win-sink")
        self.log = []

    def on_message(self, message):
        if message.kind == "event":
            wire = message.payload["event"]
            self.log.append((wire["type"], wire["value"],
                             wire["timestamp"]))


@pytest.fixture()
def rig():
    subscription_module._subscription_ids = itertools.count(1)
    net = Network(latency_model=FixedLatency(1.0), seed=5)
    net.add_host("w0")
    net.add_host("w1")
    guids = GuidFactory(seed=17)
    mediator = EventMediator(guids.mint(), "w0", net, range_name="win")
    return net, guids, mediator


def _publish(net, mediator, guids, timestamp, value=1.0,
             type_name="temperature"):
    event = ContextEvent(TypeSpec(type_name, "raw", "room-0"), value,
                         guids.mint(), timestamp)
    mediator.publish(event)
    net.run_until_idle()


def _window_query(agg="count", width=10.0, emit_empty=False, key="value"):
    return {"op": "window", "agg": agg, "width": width,
            "emit_empty": emit_empty, "key": key, "source": TYPE_SPEC}


def test_empty_windows_skipped_by_default(rig):
    net, guids, mediator = rig
    sink = Sink(guids.mint(), "w1", net)
    mediator.add_subscription(sink.guid, None, query=_window_query())
    _publish(net, mediator, guids, 1.0)
    # a 40-unit silence spans three whole empty windows; only [0,10) emits
    _publish(net, mediator, guids, 45.0)
    _publish(net, mediator, guids, 51.0)
    assert [(v, ts) for _, v, ts in sink.log] == [(1, 10.0), (1, 50.0)]


def test_empty_windows_emitted_when_asked(rig):
    net, guids, mediator = rig
    sink = Sink(guids.mint(), "w1", net)
    mediator.add_subscription(sink.guid, None,
                              query=_window_query(emit_empty=True))
    _publish(net, mediator, guids, 1.0)
    _publish(net, mediator, guids, 35.0)
    # [0,10) holds one event; [10,20) and [20,30) are empty but reported
    assert [(v, ts) for _, v, ts in sink.log] == [(1, 10.0), (0, 20.0),
                                                  (0, 30.0)]


def test_empty_avg_window_reports_none(rig):
    net, guids, mediator = rig
    sink = Sink(guids.mint(), "w1", net)
    mediator.add_subscription(
        sink.guid, None, query=_window_query(agg="avg", emit_empty=True))
    _publish(net, mediator, guids, 1.0, value=4.0)
    _publish(net, mediator, guids, 25.0, value=8.0)
    assert [(v, ts) for _, v, ts in sink.log] == [(4.0, 10.0), (None, 20.0)]


def test_boundary_event_joins_the_new_window(rig):
    net, guids, mediator = rig
    sink = Sink(guids.mint(), "w1", net)
    mediator.add_subscription(sink.guid, None, query=_window_query())
    _publish(net, mediator, guids, 9.0)
    _publish(net, mediator, guids, 10.0)  # exactly on the boundary
    _publish(net, mediator, guids, 20.0)
    assert [(v, ts) for _, v, ts in sink.log] == [(1, 10.0), (1, 20.0)]


def test_unsubscribe_mid_window_stops_delivery(rig):
    net, guids, mediator = rig
    sink = Sink(guids.mint(), "w1", net)
    sub = mediator.add_subscription(sink.guid, None, query=_window_query())
    _publish(net, mediator, guids, 1.0)
    mediator.remove_subscription(sub.sub_id)
    assert mediator.opgraph_stats()["nodes"] == 0  # plan fully reclaimed
    _publish(net, mediator, guids, 15.0)  # would have closed [0,10)
    assert sink.log == []


def test_unsubscribe_mid_window_keeps_shared_node_alive(rig):
    net, guids, mediator = rig
    leaver, stayer = Sink(guids.mint(), "w1", net), Sink(guids.mint(), "w1", net)
    sub = mediator.add_subscription(leaver.guid, None, query=_window_query())
    mediator.add_subscription(stayer.guid, None, query=_window_query())
    _publish(net, mediator, guids, 1.0)
    _publish(net, mediator, guids, 2.0)
    mediator.remove_subscription(sub.sub_id)
    _publish(net, mediator, guids, 15.0)
    assert leaver.log == []
    # the shared window node kept its partial state across the detach
    assert [(v, ts) for _, v, ts in stayer.log] == [(2, 10.0)]
