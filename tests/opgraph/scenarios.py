"""Fixed-seed workload for the filter-table equivalence suite.

One scenario run against the mediator and against the linear reference
scan (:mod:`tests.events.reference_scan`), logging every delivery per
subscription. The filter table's contract is that per-subscription
delivery logs are **entry-identical** — same events, same values, same order — to the
reference scan for every filter shape the mediator distinguishes,
including heavy dedup pressure (many spec-identical filters built in
different construction orders), one-time arbitration, retained replay,
and churn.

Global counters (``ContextEvent.seq``, ``Subscription.sub_id``) are reset
or pre-minted so runs in one pytest process stay comparable.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events import subscription as subscription_module
from repro.events.event import ContextEvent
from repro.events.filters import (AndFilter, AttributeFilter, MatchAll,
                                  SourceFilter, SubjectFilter, TypeFilter)
from repro.events.mediator import EventMediator
from repro.net.transport import FixedLatency, Network, Process
from tests.events.reference_scan import ReferenceScanMediator

HOSTS = ("q0", "q1", "q2", "q3")
TYPES = ("temperature", "presence", "co2")
SUBJECTS = tuple(f"room-{i}" for i in range(5))
STORMS = (10.0, 40.0, 70.0)
EVENTS_PER_STORM = 30


class Publisher(Process):
    """Sends pre-minted events to the mediator."""

    def __init__(self, guid, host_id, network, mediator):
        super().__init__(guid, host_id, network, name="opg-publisher")
        self.mediator = mediator.guid
        self.acks = 0

    def publish(self, wire_event: dict) -> None:
        self.send(self.mediator, "publish", {"event": wire_event})

    def on_message(self, message) -> None:
        if message.kind == "publish-ack":
            self.acks += 1


class LoggingSink(Process):
    """One subscription endpoint; records deliveries in arrival order and
    acks each, as a subscriber does, so nothing is retransmitted."""

    def __init__(self, guid, host_id, network, label: str):
        super().__init__(guid, host_id, network, name=f"sink:{label}")
        self.label = label
        self.log: List[tuple] = []

    def on_message(self, message) -> None:
        if message.kind == "event":
            wire = message.payload["event"]
            self.log.append((wire["type"], wire["subject"], wire["value"]))
            self.send(message.sender, "event-ack",
                      {"acks": message.payload["subs"]})


def _mint_events(source_guids: GuidFactory) -> List[List[dict]]:
    """Pre-mint every storm's events with explicit ``seq`` values."""
    seq = itertools.count(5000)
    sources = [source_guids.mint() for _ in range(4)]
    storms = []
    for storm_index in range(len(STORMS)):
        storm = []
        for i in range(EVENTS_PER_STORM):
            n = storm_index * EVENTS_PER_STORM + i
            spec = TypeSpec(TYPES[n % len(TYPES)], "raw",
                            SUBJECTS[(n * 7) % len(SUBJECTS)])
            attributes = {"floor": n % 2, "reading": float(n % 11)}
            storm.append(ContextEvent(
                spec, value=n, source=sources[n % len(sources)],
                timestamp=float(n), seq=next(seq),
                attributes=attributes).to_wire())
        storms.append(storm)
    return storms


def run_scenario(reference: bool = False,
                 seed: int = 23) -> Dict[str, object]:
    """Run the scenario; returns per-subscription delivery logs.

    The mediator is a plain :class:`EventMediator` — or, with
    ``reference=True``, the linear reference scan. Storms are *scheduled*
    at STORMS offsets with drained gaps so control-plane mutations land at
    legal points.
    """
    subscription_module._subscription_ids = itertools.count(1)
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    for host in HOSTS:
        net.add_host(host)
    guids = GuidFactory(seed=seed ^ 0x51)
    mediator_class = ReferenceScanMediator if reference else EventMediator
    mediator = mediator_class(guids.mint(), HOSTS[0], net, range_name="opg")
    publisher = Publisher(guids.mint(), HOSTS[1], net, mediator)

    sinks: Dict[str, LoggingSink] = {}
    subs: Dict[str, int] = {}

    def subscribe(label: str, event_filter, host: str,
                  one_time: bool = False, replay: bool = False) -> None:
        sink = sinks.get(label)
        if sink is None:
            sink = LoggingSink(guids.mint(), host, net, label)
            sinks[label] = sink
        subscription = mediator.add_subscription(
            sink.guid, event_filter, one_time=one_time, owner=label,
            replay_retained=replay)
        subs[label] = subscription.sub_id

    # every filter shape the dispatch path distinguishes
    for i, (type_name, subject) in enumerate(
            (t, s) for t in TYPES for s in SUBJECTS[:3]):
        subscribe(f"track:{type_name}:{subject}",
                  AndFilter([TypeFilter(type_name), SubjectFilter(subject)]),
                  HOSTS[i % len(HOSTS)])
    # dedup pressure: spec-identical filters in both construction orders
    for i in range(6):
        parts = [TypeFilter("temperature"), AttributeFilter("floor", "==", 1)]
        if i % 2:
            parts.reverse()
        subscribe(f"lookalike:{i}", AndFilter(parts), HOSTS[i % len(HOSTS)])
    subscribe("monitor:temperature", TypeFilter("temperature"), HOSTS[2])
    subscribe("monitor:co2", TypeFilter("co2"), HOSTS[3])
    subscribe("subject:room-1", SubjectFilter("room-1"), HOSTS[0])
    subscribe("residual:all", MatchAll(), HOSTS[1])
    subscribe("residual:floor", AttributeFilter("floor", "==", 0), HOSTS[2])
    subscribe("once:exact",
              AndFilter([TypeFilter("presence"), SubjectFilter("room-0")]),
              HOSTS[3], one_time=True)
    subscribe("once:routed", TypeFilter("presence"), HOSTS[0], one_time=True)

    source_guids = GuidFactory(seed=seed ^ 0xE7)
    storms = _mint_events(source_guids)
    schedule = net.scheduler.schedule_at
    for start, storm in zip(STORMS, storms):
        for i, wire in enumerate(storm):
            schedule(start + 0.6 * i, publisher.publish, wire)
    source_hex = storms[0][0]["source"]
    subscribe("source:first", SourceFilter(source_hex), HOSTS[1])

    # mid-storm exact-key churn, incl. one look-alike (a detach
    # must not tear down the shared node other look-alikes still use)
    schedule(14.3, lambda: mediator.remove_subscription(
        subs["track:temperature:room-0"]))
    schedule(14.9, lambda: mediator.remove_subscription(subs["lookalike:3"]))
    schedule(16.1, lambda: subscribe("track:late:co2:room-2",
                                     AndFilter([TypeFilter("co2"),
                                                SubjectFilter("room-2")]),
                                     HOSTS[2]))

    # drained boundary 1: routed churn + late joiners with replay
    schedule(32.5, lambda: mediator.remove_subscription(subs["monitor:co2"]))
    schedule(33.5, lambda: subscribe("late:replay:exact",
                                     AndFilter([TypeFilter("temperature"),
                                                SubjectFilter("room-1")]),
                                     HOSTS[0], replay=True))
    schedule(34.5, lambda: subscribe("late:replay:typed",
                                     TypeFilter("presence"), HOSTS[1],
                                     replay=True))

    # a final event past the last storm
    extra = ContextEvent(
        TypeSpec("temperature", "raw", "room-1"), value=999,
        source=source_guids.mint(), timestamp=105.0, seq=9999).to_wire()
    schedule(95.0, lambda: publisher.publish(extra))

    net.run_until_idle()
    result = {
        "logs": {label: list(sink.log) for label, sink in sinks.items()},
        "delivered": sum(len(sink.log) for sink in sinks.values()),
        "acks": publisher.acks,
        "subscription_count": mediator.subscription_count,
        "opgraph": mediator.opgraph_stats(),
        "metrics": net.obs.metrics,
    }
    close = getattr(net.scheduler, "close", None)
    if close is not None:
        close()
    return result
