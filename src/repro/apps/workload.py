"""Open-loop workload generator for Context Server scale benchmarks.

The figure benchmarks replay small scripted scenarios; this module generates
*open-loop* traffic — arrivals fire on their own clock regardless of how
fast the middleware drains them, which is what exposes queueing collapse at
scale. The shape is configurable and everything is seeded:

* **arrival process** — Poisson (exponential inter-arrival) or jittered
  uniform, split across N publisher processes, each self-clocking its
  own stream as its host; an optional **diurnal profile**
  (``rate_profile``) modulates the Poisson rate piecewise-constantly over
  equal slices of the arrival window (morning ramp, midday peak, night
  trough), sampled exactly by unit-exponential area integration;
* **heavy-tailed popularity** — publish subjects are drawn from a Zipf
  distribution over the entity population (a few entities are hot, the
  long tail is cold), matching how context interest concentrates; the
  resolver query mix can be skewed the same way (``query_mix="zipf"``)
  instead of uniform over types;
* **subscription table** — a majority of exact ``(type, subject)``
  trackers over Zipf-sampled entities plus a few type-level monitors
  (the residual/routed shapes), sized independently of the population;
  with ``tracker_templates > 0`` trackers instead draw from a small pool
  of look-alike ``And(type, floor == k)`` templates with Zipf-skewed
  popularity — the shape the operator-graph engine deduplicates, and the
  worst case for per-subscription dispatch;
* **churn** — subscription churn and registration/lease churn (profile
  arrivals/departures driving the resolver's delta protocol) scheduled at
  seeded times as control events;
* **queries** — resolver resolutions over the provider population, mixed
  into the run at seeded times.

Latency is measured in *simulated* time from ``ContextEvent.timestamp`` to
sink arrival; throughput is measured in *wall-clock* time by the caller
around :meth:`OpenLoopWorkload.run`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.core.ids import GUID, GuidFactory
from repro.core.types import TypeRegistry, TypeSpec
from repro.composition.resolver import QueryResolver
from repro.composition.templates import TemplateRegistry
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.events.filters import (
    AndFilter,
    AttributeFilter,
    SubjectFilter,
    TypeFilter,
)
from repro.net.message import Message
from repro.net.transport import Network, Process


@dataclass
class WorkloadConfig:
    """Knobs for one open-loop run. Everything derives from ``seed``."""

    entities: int = 10_000        # population of publishable subjects
    duration: float = 200.0       # sim-time length of the arrival window
    publish_rate: float = 50.0    # aggregate publishes per sim-time unit
    arrival: str = "poisson"      # "poisson" | "uniform"
    zipf_s: float = 1.1           # subject-popularity skew (s > 1 = heavy)
    trackers: int = 2_000         # exact (type, subject) subscriptions
    tracker_cap: int = 2          # max trackers per entity (fan-out bound)
    monitors: int = 4             # type-level (routed) subscriptions
    publishers: int = 4           # open-loop source processes
    types: int = 16               # distinct event type names
    churn_ops: int = 50           # subscription + registration churn ops
    query_ops: int = 50           # resolver queries mixed into the run
    profile_cap: int = 20_000     # resolver provider population cap
    seed: int = 1
    #: distinct "floor" attribute values stamped on every event; decorrelated
    #: from the type axis so (type, floor) combinations spread evenly
    floors: int = 8
    #: > 0 switches trackers to template mode: each tracker is one of this
    #: many look-alike ``And(type, floor == k)`` shapes, Zipf-popular
    tracker_templates: int = 0
    template_zipf_s: float = 1.1  # template-popularity skew
    #: diurnal arrival modulation: piecewise-constant positive multipliers
    #: over equal slices of the arrival window; empty = flat rate
    rate_profile: Tuple[float, ...] = field(default_factory=tuple)
    query_mix: str = "uniform"    # resolver query types: "uniform" | "zipf"
    query_zipf_s: float = 1.2     # type-popularity skew for query_mix="zipf"

    def type_of(self, entity: int) -> str:
        return f"wl-type-{entity % self.types}"

    def subject_of(self, entity: int) -> str:
        return f"e{entity}"

    def floor_of(self, entity: int) -> int:
        # integer-divide by the type count first so floor varies within a
        # type's population instead of aliasing the type axis
        return (entity // self.types) % self.floors

    def template_combo(self, template: int) -> Tuple[str, int]:
        """(type name, floor) for one template rank.

        Publish traffic concentrates on low ``(type, floor)`` combinations
        (the Zipf-hot entities), so the mapping scatters template ranks with
        a coprime stride *and reverses the axis*: popular subscription
        shapes watch quiet combinations — the monitoring pattern, where
        interest concentrates on things that rarely happen. This keeps
        delivered volume bounded as the look-alike count grows; without it,
        hot-template × hot-traffic alignment makes fan-out, not matching,
        the dominant cost for every engine.
        """
        combos = self.types * self.floors
        combo = combos - 1 - ((template * 37) % combos)
        return f"wl-type-{combo % self.types}", combo // self.types


class ZipfSampler:
    """Seeded Zipf(s) sampling over ``0..n-1`` via a precomputed CDF."""

    def __init__(self, n: int, s: float):
        total = 0.0
        cdf: List[float] = []
        for rank in range(1, n + 1):
            total += rank ** -s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, rng: Random) -> int:
        return bisect_left(self._cdf, rng.random() * self._total)


class ProviderFeed:
    """A registrar-shaped profile feed for resolver churn.

    Mimics exactly what the Registrar does to the resolver: a profile list,
    a registrations counter bumped once per arrival/departure, and the
    ``(registrations, templates)`` feed-version pair.
    """

    def __init__(self, registry: TypeRegistry, config: WorkloadConfig,
                 guid_seed: int = 97):
        self.registry = registry
        self.config = config
        self.templates = TemplateRegistry()
        self.guids = GuidFactory(seed=guid_seed)
        self._serial = itertools.count(1)
        self.registrations = 0
        count = min(config.entities, config.profile_cap)
        for index in range(config.types):
            if not registry.known(self.sense_type(index)):
                registry.define(self.sense_type(index))
        self.profiles: List[Profile] = [self._mint_profile(index)
                                        for index in range(count)]
        self.registrations = count

    def sense_type(self, index: int) -> str:
        return f"wl-sense-{index % self.config.types}"

    def _mint_profile(self, index: int) -> Profile:
        serial = next(self._serial)
        return Profile(
            self.guids.mint(), f"wl-src-{serial}", EntityClass.DEVICE,
            outputs=[TypeSpec(self.sense_type(index), "raw",
                              self.config.subject_of(index))])

    def version(self):
        return (self.registrations, self.templates.version)

    def register(self, index: int) -> Profile:
        profile = self._mint_profile(index)
        self.profiles.append(profile)
        self.registrations += 1
        return profile

    def deregister(self, position: int) -> Profile:
        profile = self.profiles.pop(position % len(self.profiles))
        self.registrations += 1
        return profile

    def resolver(self, metrics=None,
                 range_name: str = "workload") -> QueryResolver:
        return QueryResolver(
            self.registry,
            live_profiles=lambda: list(self.profiles),
            templates=self.templates,
            feed_version=self.version,
            metrics=metrics,
            range_name=range_name)


class _Publisher(Process):
    """One open-loop source: self-clocked arrivals, keyed by its host."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 workload: "OpenLoopWorkload", index: int):
        super().__init__(guid, host_id, network, name=f"wl-pub-{index}")
        self.workload = workload
        self.rng = Random(f"{workload.config.seed}:pub:{index}")
        self.published = 0

    def on_message(self, message) -> None:
        if message.kind == "wl-start":
            self._fire()
        # publish-acks are ignored: open-loop sources never wait

    def _fire(self) -> None:
        workload = self.workload
        if self.now >= workload.deadline:
            return
        entity = workload.sampler.sample(self.rng)
        config = workload.config
        event = ContextEvent(
            TypeSpec(config.type_of(entity), "raw",
                     config.subject_of(entity)),
            self.published, self.guid, self.now,
            {"floor": config.floor_of(entity)})
        self.send(workload.mediator.guid, "publish",
                  {"event": event.to_wire(), "ack": False})
        self.published += 1
        self.scheduler.schedule(workload.interarrival(self.rng, self.now),
                                self._fire)


class _Sink(Process):
    """A subscriber endpoint recording sim-time delivery latency."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 index: int):
        super().__init__(guid, host_id, network, name=f"wl-sink-{index}")
        self.latencies: List[float] = []

    def on_message(self, message) -> None:
        if message.kind == "event":
            wire = message.payload["event"]
            self.latencies.append(self.now - wire["timestamp"])


class OpenLoopWorkload:
    """Drive one mediator (+ optional resolver) with open-loop traffic.

    ``install()`` builds sinks, the subscription table and the publishers
    and pre-schedules churn/query operations; ``run()`` drains the run and
    returns wall-clock seconds; ``report()`` summarises.
    """

    def __init__(self, network: Network, mediator, config: WorkloadConfig,
                 resolver: Optional[QueryResolver] = None,
                 feed: Optional[ProviderFeed] = None,
                 hosts: Optional[List[str]] = None,
                 guid_seed: int = 71):
        self.network = network
        self.mediator = mediator
        self.config = config
        self.resolver = resolver
        self.feed = feed
        self.hosts = list(hosts) if hosts else [mediator.host_id]
        self.guids = GuidFactory(seed=guid_seed)
        self.sampler = ZipfSampler(config.entities, config.zipf_s)
        self.publishers: List[_Publisher] = []
        self.sinks: List[_Sink] = []
        self.start = 0.0
        self.deadline = 0.0
        if config.rate_profile and min(config.rate_profile) <= 0:
            raise ValueError("rate_profile multipliers must be > 0")
        self._template_sampler = (
            ZipfSampler(config.tracker_templates, config.template_zipf_s)
            if config.tracker_templates > 0 else None)
        if config.query_mix == "zipf":
            self._query_type_sampler: Optional[ZipfSampler] = \
                ZipfSampler(config.types, config.query_zipf_s)
        elif config.query_mix == "uniform":
            self._query_type_sampler = None
        else:
            raise ValueError(f"unknown query mix {config.query_mix!r}")
        self.queries_ok = 0
        self.queries_failed = 0
        self.churned_subs = 0
        self.churned_profiles = 0
        self._tracker_subs: List[int] = []
        self._tracked: Dict[int, int] = {}      # entity -> tracker count
        self._sub_entity: Dict[int, int] = {}   # sub_id -> entity
        self._churn_rng = Random(f"{config.seed}:churn")
        self._query_rng = Random(f"{config.seed}:query")
        self._install_rng = Random(f"{config.seed}:install")

    # -- arrival process ------------------------------------------------------

    def interarrival(self, rng: Random, now: float) -> float:
        per_publisher = self.config.publish_rate / self.config.publishers
        if self.config.rate_profile and self.config.arrival == "poisson":
            return self._profiled_gap(rng, now, per_publisher)
        mean = 1.0 / per_publisher
        if self.config.arrival == "poisson":
            return rng.expovariate(per_publisher)
        if self.config.arrival == "uniform":
            return rng.uniform(0.5 * mean, 1.5 * mean)
        raise ValueError(f"unknown arrival process {self.config.arrival!r}")

    def _profiled_gap(self, rng: Random, now: float, base_rate: float) -> float:
        """Next arrival under the diurnal piecewise-constant Poisson rate.

        Exact sampling by area integration: draw a unit-rate exponential
        and consume it against ``rate(t) dt`` slice by slice — the standard
        inversion for inhomogeneous Poisson processes with step rates, so
        the realised process is Poisson with exactly the profiled rate (no
        thinning, no approximation at slice boundaries). Past the arrival
        window the last slice's rate extends (publishers stop at the
        deadline anyway).
        """
        profile = self.config.rate_profile
        width = self.config.duration / len(profile)
        area = rng.expovariate(1.0)
        t = max(0.0, now - self.start)
        while True:
            index = int(t // width)
            if index >= len(profile) - 1:
                rate = base_rate * profile[-1]
                t = max(t, (len(profile) - 1) * width) + area / rate
                break
            rate = base_rate * profile[index]
            boundary = (index + 1) * width
            capacity = rate * (boundary - t)
            if area <= capacity:
                t += area / rate
                break
            area -= capacity
            t = boundary
        return (self.start + t) - now

    # -- setup ----------------------------------------------------------------

    def install(self) -> None:
        config = self.config
        if (self._template_sampler is None
                and config.trackers > config.entities * config.tracker_cap):
            raise ValueError(
                f"{config.trackers} trackers cannot fit "
                f"{config.entities} entities at cap {config.tracker_cap}")
        for host in self.hosts:
            self.network.ensure_host(host)
        for index, host in enumerate(self.hosts):
            self.sinks.append(_Sink(self.guids.mint(), host,
                                    self.network, index))
        for index in range(config.trackers):
            if self._template_sampler is not None:
                self._add_template_tracker(self._install_rng, index)
            else:
                self._add_tracker(
                    self._pick_tracked_entity(self._install_rng), index)
        for index in range(config.monitors):
            sink = self.sinks[index % len(self.sinks)]
            self.mediator.add_subscription(
                sink.guid, TypeFilter(f"wl-type-{index % config.types}"),
                owner="wl-monitor")
        for index in range(config.publishers):
            host = self.hosts[index % len(self.hosts)]
            self.publishers.append(_Publisher(self.guids.mint(), host,
                                              self.network, self, index))
        start = self.network.scheduler.now
        self.start = start
        self.deadline = start + config.duration
        # churn and queries are control events (scheduled from external
        # context), not messages
        for when in self._op_times(self._churn_rng, config.churn_ops):
            self.network.scheduler.schedule_at(start + when, self._churn_op)
        if self.resolver is not None:
            for when in self._op_times(self._query_rng, config.query_ops):
                self.network.scheduler.schedule_at(start + when,
                                                   self._query_op)

    def _op_times(self, rng: Random, count: int) -> List[float]:
        return sorted(rng.uniform(1.0, self.config.duration)
                      for _ in range(count))

    def _pick_tracked_entity(self, rng: Random) -> int:
        """A Zipf draw, spilling to the uniform tail when the draw is full.

        Without the per-entity cap the hottest subjects collect O(trackers)
        subscriptions AND O(publishes) events, making delivery volume
        quadratic in the skew — no real deployment attaches thousands of
        trackers to one entity.
        """
        entity = self.sampler.sample(rng)
        while self._tracked.get(entity, 0) >= self.config.tracker_cap:
            entity = rng.randrange(self.config.entities)
        return entity

    def _add_tracker(self, entity: int, index: int) -> None:
        config = self.config
        sink = self.sinks[index % len(self.sinks)]
        # no retained replay: trackers follow fresh updates
        subscription = self.mediator.add_subscription(
            sink.guid,
            AndFilter([TypeFilter(config.type_of(entity)),
                       SubjectFilter(config.subject_of(entity))]),
            owner="wl-tracker", replay_retained=False)
        self._tracker_subs.append(subscription.sub_id)
        self._sub_entity[subscription.sub_id] = entity
        self._tracked[entity] = self._tracked.get(entity, 0) + 1

    def _add_template_tracker(self, rng: Random, index: int) -> None:
        """One look-alike tracker drawn from the Zipf-popular template pool."""
        type_name, floor = self.config.template_combo(
            self._template_sampler.sample(rng))
        sink = self.sinks[index % len(self.sinks)]
        subscription = self.mediator.add_subscription(
            sink.guid,
            AndFilter([TypeFilter(type_name),
                       AttributeFilter("floor", "==", floor)]),
            owner="wl-tracker", replay_retained=False)
        self._tracker_subs.append(subscription.sub_id)

    # -- control-event operations ---------------------------------------------

    def _churn_op(self) -> None:
        """One churn step: rotate a tracker and (if fed) a registration."""
        rng = self._churn_rng
        if self._tracker_subs:
            victim = self._tracker_subs.pop(
                rng.randrange(len(self._tracker_subs)))
            self.mediator.remove_subscription(victim)
            if self._template_sampler is not None:
                self._add_template_tracker(rng, len(self._tracker_subs))
            else:
                was_tracking = self._sub_entity.pop(victim)
                self._tracked[was_tracking] -= 1
                self._add_tracker(self._pick_tracked_entity(rng),
                                  len(self._tracker_subs))
            self.churned_subs += 1
        if self.feed is not None and self.resolver is not None:
            departed = self.feed.deregister(rng.randrange(10**9))
            self.resolver.note_profile_removed(departed.entity_id.hex)
            arrived = self.feed.register(rng.randrange(self.config.entities))
            self.resolver.note_profile_added(arrived)
            self.churned_profiles += 1

    def _query_op(self) -> None:
        from repro.core.errors import SCIError
        if self._query_type_sampler is not None:
            type_index = self._query_type_sampler.sample(self._query_rng)
        else:
            type_index = self._query_rng.randrange(self.config.types)
        wanted = TypeSpec(
            self.feed.sense_type(type_index) if self.feed is not None
            else f"wl-sense-{type_index}",
            "raw")
        try:
            self.resolver.resolve(wanted)
            self.queries_ok += 1
        except SCIError:
            self.queries_failed += 1

    # -- run ------------------------------------------------------------------

    def run(self) -> None:
        """Kick the publishers and drain the run. Callers that want
        wall-clock throughput time this call themselves (wall-clock reads
        belong in benchmark harnesses, not simulated code).

        The kick is a self-addressed message sent from external context: it
        is delivered as the publisher's host, so the publisher's entire
        arrival stream self-schedules under that host's origin rank instead
        of as control events.
        """
        for publisher in self.publishers:
            self.network.send(Message(sender=publisher.guid,
                                      recipient=publisher.guid,
                                      kind="wl-start"))
        self.network.scheduler.run_until_idle()  # sci: allow(determinism.wall-clock)

    # -- reporting ------------------------------------------------------------

    def published(self) -> int:
        return sum(publisher.published for publisher in self.publishers)

    def latencies(self) -> List[float]:
        merged: List[float] = []
        for sink in self.sinks:
            merged.extend(sink.latencies)
        merged.sort()
        return merged

    def report(self, wall_s: float) -> Dict[str, object]:
        latencies = self.latencies()
        delivered = len(latencies)
        published = self.published()
        metrics = self.network.obs.metrics
        metrics.counter(
            "workload.ops.generated",
            "open-loop operations generated, by kind",
            labels=("kind",)).inc(published, kind="publish")
        metrics.counter(
            "workload.ops.generated",
            "open-loop operations generated, by kind",
            labels=("kind",)).inc(self.churned_subs, kind="churn")
        metrics.counter(
            "workload.ops.generated",
            "open-loop operations generated, by kind",
            labels=("kind",)).inc(self.queries_ok + self.queries_failed,
                                  kind="query")
        metrics.counter(
            "workload.events.delivered",
            "events received by workload sinks").inc(delivered)
        histogram = metrics.histogram(
            "workload.delivery.latency",
            "sim-time publish-to-delivery latency at workload sinks")
        for latency in latencies:
            histogram.observe(latency)
        return {
            "entities": self.config.entities,
            "published": published,
            "delivered": delivered,
            "queries": self.queries_ok + self.queries_failed,
            "churn_subs": self.churned_subs,
            "churn_profiles": self.churned_profiles,
            "latency_p50": _percentile(latencies, 0.50),
            "latency_p99": _percentile(latencies, 0.99),
            "wall_s": wall_s,
            "published_per_s": published / wall_s if wall_s else 0.0,
            "delivered_per_s": delivered / wall_s if wall_s else 0.0,
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = int(q * (len(sorted_values) - 1))
    return sorted_values[index]
