"""Fixed-seed mixed workload for the scheduler equivalence suite.

One scenario exercising every mechanism whose ordering the substrate must
keep repeatable: incremental overlay joins (a time-zero message burst),
a pub/sub publish storm fanning out through an Event Mediator, overlay
routing probes, host timers scheduled from inside delivery callbacks,
and a chaos episode (loss + host outage + network split) driven through
control events. Latencies are jittered (:class:`CampusLatency`), so
same-time cross-origin collisions — the one case where a global
``(time, sequence)`` heap and the canonical ``(when, origin_rank,
origin_seq)`` order may legitimately differ — have measure zero, and the
single-heap reference (:mod:`tests.parallel.single_heap`) must leave the
same log as the production scheduler.

Every id in a payload is minted by its owner inside the run (the mediator
numbers its subscriptions, each process its messages), and each storm
event is told apart by the value its publisher set, so several runs in one
pytest process leave identical digests.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.ids import GUID
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import MatchAll, SubjectFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.faults.injector import FaultInjector
from repro.net.eventlog import EventLog
from repro.net.transport import CampusLatency, Network, Process
from repro.overlay.scinet import SCINet
from tests.events.reference_scan import ReferenceScanMediator
from tests.parallel.single_heap import SingleHeapScheduler

HOSTS = tuple(f"h{i}" for i in range(8))
NODES = 18
EVENTS = 24
ROUTES = 12


class StormPublisher(Process):
    """Feeds pre-minted events to the mediator; counts acks and echo probes."""

    def __init__(self, guid, host_id, network, mediator_guid):
        super().__init__(guid, host_id, network, name="storm-publisher")
        self.mediator_guid = mediator_guid
        self.acks = 0
        self.probes = 0

    def publish(self, wire_event: dict) -> None:
        self.send(self.mediator_guid, "publish", {"event": wire_event})

    def on_message(self, message) -> None:
        if message.kind == "publish-ack":
            self.acks += 1
        elif message.kind == "probe":
            self.probes += 1


class StormSubscriber(Process):
    """Counts deliveries; every second one arms a host timer that echoes a
    probe back — covering timers scheduled *from inside* host callbacks and
    the cross-host sends those timers make."""

    def __init__(self, guid, host_id, network, publisher_guid):
        super().__init__(guid, host_id, network, name=f"sub@{host_id}")
        self.publisher_guid = publisher_guid
        self.received = 0
        self.echoes = 0

    def on_message(self, message) -> None:
        if message.kind != "event":
            return
        self.received += 1
        if self.received % 2 == 0:
            self.network.scheduler.schedule(0.75, self._echo)

    def _echo(self) -> None:
        self.echoes += 1
        self.send(self.publisher_guid, "probe", {"n": self.echoes})


def _mint_events(guids) -> List[dict]:
    """Pre-mint the storm's events at setup, each with its own value."""
    events = []
    for i in range(EVENTS):
        spec = TypeSpec(
            type_name="temperature" if i % 2 else "presence",
            representation="float" if i % 2 else "bool",
            subject=f"room-{i % 5}",
        )
        events.append(ContextEvent(
            spec=spec, value=i * 10, source=guids.mint(),
            timestamp=float(i),
        ).to_wire())
    return events


def run_scenario(reference_heap: bool = False, seed: int = 11,
                 reference_scan: bool = False) -> Dict[str, object]:
    """Run the mixed scenario on the production scheduler, or on a reference.

    ``reference_heap=True`` plugs in the single-heap reference scheduler
    (:mod:`tests.parallel.single_heap`); ``reference_scan=True`` swaps the
    storm's mediator for the linear reference scan
    (:mod:`tests.events.reference_scan`). The event log must not be able
    to tell either reference from production.
    """
    log = EventLog()
    net = Network(
        scheduler=SingleHeapScheduler() if reference_heap else None,
        latency_model=CampusLatency(local=0.05, remote=1.0, jitter=0.5),
        seed=seed, event_log=log)
    for host in HOSTS:
        net.add_host(host)

    # -- overlay: a time-zero burst of incremental join traffic
    sci = SCINet(net)
    nodes = [sci.create_node(HOSTS[i % len(HOSTS)], range_name=f"r{i}")
             for i in range(NODES)]

    # -- pub/sub: mediator + publisher + subscribers with mixed filters
    mediator_class = ReferenceScanMediator if reference_scan else EventMediator
    mediator = mediator_class(net.guids.mint(), "h0", net, range_name="storm")
    publisher = StormPublisher(net.guids.mint(), "h1", net, mediator.guid)
    subscribers = []
    filters = [TypeFilter("temperature"), TypeFilter("presence"),
               SubjectFilter("room-1"), SubjectFilter("room-3"),
               TypeFilter("temperature"), MatchAll()]
    for host, event_filter in zip(("h0", "h2", "h3", "h4", "h5", "h7"),
                                  filters):
        sub = StormSubscriber(net.guids.mint(), host, net, publisher.guid)
        mediator.add_subscription(sub.guid, event_filter, owner="scenario")
        subscribers.append(sub)

    # -- the storm: staggered (unique) external times, events pre-minted
    wires = _mint_events(net.guids)
    for i, wire in enumerate(wires):
        net.scheduler.schedule_at(50.0 + 1.3 * i, publisher.publish, wire)

    # -- routing probes across the built overlay
    rng = random.Random(seed ^ 0xF00)
    for j in range(ROUTES):
        key = GUID(rng.getrandbits(128))
        origin = nodes[rng.randrange(len(nodes))]
        net.scheduler.schedule_at(58.0 + 2.1 * j, origin.route, key, "probe",
                                  {"probe": j})

    # -- chaos: loss, an outage and a network split, all control events
    injector = FaultInjector(net, seed=seed ^ 0xC4A)
    net.scheduler.schedule_at(65.2, injector.loss_episode, 0.3, 16.0)
    net.scheduler.schedule_at(72.9, injector.host_outage, "h3", 11.0)
    net.scheduler.schedule_at(
        84.5, injector.partition_episode,
        [["h0", "h1", "h2", "h3"], ["h4", "h5", "h6", "h7"]], 8.0)

    net.run_until_idle()
    return {
        "log": log,
        "digest": log.digest(),
        "per_host": log.per_host(),
        "entries": len(log),
        "sent": net.stats.sent,
        "delivered": net.stats.delivered,
        "dropped": net.stats.dropped,
        "by_kind": dict(net.stats.by_kind),
        "host_load": dict(net.stats.host_load),
        "acks": publisher.acks,
        "probes": publisher.probes,
        "received": [sub.received for sub in subscribers],
        "routed": sci.total_routed(),
        "final_time": net.scheduler.now,
    }
