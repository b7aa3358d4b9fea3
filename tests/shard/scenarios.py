"""Fixed-seed pub/sub workload for the sharding equivalence suite.

One scenario exercised against the single linear reference scan
(:mod:`tests.events.reference_scan`), a single :class:`EventMediator` and
:class:`ShardedEventMediator` at several shard counts (on the reference
heap and on the production scheduler), logging every delivery **per
subscription**. The
sharded mediator's contract is that per-subscription delivery logs are
identical entry for entry — same events, same values, same order — for
every filter shape: exact ``(type, subject)`` trackers, type monitors,
subject- and source-only filters, residual (``MatchAll``/attribute)
filters, one-time subscriptions, and retained replay to late joiners.

Timing discipline: publishers resolve the owner shard *at send time*
(``shard_guid_for`` — ownership is a pure function of the key), so exact
trackers fan out one latency after the publish in both configurations and
exact-key churn may happen mid-storm. Routed filters fan out on the
router one extra hop later in the sharded configuration — delivery *time*
shifts, delivery *content and order* must not — so routed-table mutations
and shard rebalances are scheduled at drained boundaries between storms,
which is also the sharding ownership contract's legal mutation point.

Two global counters would otherwise leak process history across the
configurations run in one pytest process: ``ContextEvent.seq`` (events
are pre-minted with explicit ``seq``) and ``Subscription.sub_id`` (reset
per run).
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.core.ids import GUID, GuidFactory
from repro.core.types import TypeSpec
from repro.events import subscription as subscription_module
from repro.events.event import ContextEvent
from repro.events.filters import (AndFilter, AttributeFilter, MatchAll,
                                  SourceFilter, SubjectFilter, TypeFilter)
from repro.events.mediator import EventMediator
from repro.events.sharding import ShardedEventMediator
from repro.net.transport import FixedLatency, Network, Process
from tests.events.reference_scan import ReferenceScanMediator
from tests.parallel.single_heap import SingleHeapScheduler

HOSTS = ("s0", "s1", "s2", "s3")
TYPES = ("temperature", "presence", "co2")
SUBJECTS = tuple(f"room-{i}" for i in range(5))
#: three publish storms with drained gaps between them (last event of a
#: storm lands at start+18+2 hops < the next mutation/storm time)
STORMS = (10.0, 40.0, 70.0)
EVENTS_PER_STORM = 30


class Publisher(Process):
    """Sends pre-minted events, resolving the owner shard at send time."""

    def __init__(self, guid, host_id, network, mediator):
        super().__init__(guid, host_id, network, name="shard-publisher")
        self.mediator = mediator
        route = getattr(mediator, "shard_guid_for", None)
        self.route = (route if route is not None
                      else lambda _type, _subject: mediator.guid)
        self.acks = 0

    def publish(self, wire_event: dict) -> None:
        self.send(self.route(wire_event["type"], wire_event["subject"]),
                  "publish", {"event": wire_event})

    def publish_to(self, guid: GUID, wire_event: dict) -> None:
        """Publish to an explicit (possibly stale) mediator address."""
        self.send(guid, "publish", {"event": wire_event})

    def on_message(self, message) -> None:
        if message.kind == "publish-ack":
            self.acks += 1


class LoggingSink(Process):
    """One subscription endpoint; records deliveries in arrival order."""

    def __init__(self, guid, host_id, network, label: str):
        super().__init__(guid, host_id, network, name=f"sink:{label}")
        self.label = label
        self.log: List[tuple] = []

    def on_message(self, message) -> None:
        if message.kind == "event":
            wire = message.payload["event"]
            self.log.append((wire["type"], wire["subject"], wire["value"]))


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
            attributes = {"floor": n % 2} if n % 5 == 0 else {}
            storm.append(ContextEvent(
                spec, value=n, source=sources[n % len(sources)],
                timestamp=float(n), seq=next(seq),
                attributes=attributes).to_wire())
        storms.append(storm)
    return storms


def run_scenario(shards: int = 1, reference_heap: bool = True,
                 rebalance: bool = True, seed: int = 23,
                 reference: bool = False) -> Dict[str, object]:
    """Run the scenario; ``shards=1`` is one plain mediator — with
    ``reference=True`` the linear reference scan every other
    configuration is compared against.

    ``rebalance`` grows and then drains a shard between storms (a no-op
    for the plain mediator). By default the run is on the single-heap
    reference scheduler (insertion order at the ties the fixed latency
    makes everywhere); ``reference_heap=False`` runs it on the production
    scheduler, whose canonical key breaks those ties by origin —
    publishes and mutations are all scheduled from external context, i.e.
    as control events, where mutating router structures is legal.
    """
    subscription_module._subscription_ids = itertools.count(1)
    net = Network(scheduler=SingleHeapScheduler() if reference_heap else None,
                  latency_model=FixedLatency(1.0), seed=seed)
    for host in HOSTS:
        net.add_host(host)
    guids = GuidFactory(seed=seed ^ 0x51)
    if shards > 1:
        mediator = ShardedEventMediator(
            guids.mint(), HOSTS[0], net, range_name="diff", shards=shards,
            shard_hosts=list(HOSTS), guid_factory=guids)
    else:
        mediator_class = ReferenceScanMediator if reference else EventMediator
        mediator = mediator_class(guids.mint(), HOSTS[0], net,
                                  range_name="diff")
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

    # mid-storm exact-key churn: same fan-out timing in both configurations
    first_track = "track:temperature:room-0"
    schedule(14.3, lambda: mediator.remove_subscription(subs[first_track]))
    schedule(16.1, lambda: subscribe("track:late:co2:room-2",
                                     AndFilter([TypeFilter("co2"),
                                                SubjectFilter("room-2")]),
                                     HOSTS[2]))

    # drained boundary 1: routed-table churn + late joiners with replay
    schedule(32.5, lambda: mediator.remove_subscription(
        subs["monitor:co2"]))
    schedule(33.5, lambda: subscribe("late:replay:exact",
                                     AndFilter([TypeFilter("temperature"),
                                                SubjectFilter("room-1")]),
                                     HOSTS[0], replay=True))
    schedule(34.5, lambda: subscribe("late:replay:typed",
                                     TypeFilter("presence"), HOSTS[1],
                                     replay=True))

    # drained boundary 2: grow then drain a shard; prove in-flight handoff
    # by publishing straight at an address that just went stale
    extra = {"event": ContextEvent(
        TypeSpec("presence", "raw", "room-2"), value=999,
        source=source_guids.mint(), timestamp=60.0,
        seq=9999).to_wire()}
    if shards > 1 and rebalance:
        stale: Dict[str, GUID] = {}

        def grab_stale_route() -> None:
            stale["guid"] = mediator.shard_guid_for("presence", "room-2")

        schedule(62.0, lambda: mediator.add_shard())
        schedule(63.0, grab_stale_route)
        schedule(64.0, lambda: mediator.remove_shard(
            min(mediator.shard_ids())))
        schedule(65.0, lambda: publisher.publish_to(stale["guid"],
                                                    extra["event"]))
    else:
        schedule(65.0, lambda: publisher.publish(extra["event"]))

    net.run_until_idle()
    return {
        "logs": {label: list(sink.log) for label, sink in sinks.items()},
        "delivered": sum(len(sink.log) for sink in sinks.values()),
        "acks": publisher.acks,
        "subscription_count": mediator.subscription_count,
    }
