"""Traffic statistics used by the benchmarks.

The Figure-1 experiment needs per-host load to show that the hierarchical
baseline develops a root hotspot while the overlay does not, and delivery
latency samples to show the two are otherwise comparable. The stats object
is owned by the :class:`~repro.net.transport.Network` and updated on every
send/deliver/drop.

:class:`MessageStats` is a facade over a
:class:`~repro.obs.metrics.MetricsRegistry`: the counters live as
``net.messages.*`` series and the latency samples in the bounded
``net.delivery.latency`` histogram reservoir, so arbitrarily long runs keep
memory flat and any exporter sees the same numbers the benchmarks report.
The transport records straight into those series, so a read from inside a
callback sees every count so far.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.obs.metrics import MetricsRegistry, _Count

#: canonical metric names backing the facade
SENT = "net.messages.sent"
DELIVERED = "net.messages.delivered"
DROPPED = "net.messages.dropped"
UNDELIVERABLE = "net.messages.undeliverable"
UNHEARD = "net.messages.unheard"
MALFORMED = "net.messages.malformed"
LATENCY = "net.delivery.latency"

_NET_METRICS = (SENT, DELIVERED, DROPPED, UNDELIVERABLE, UNHEARD, MALFORMED,
                LATENCY)


class MessageStats:
    """Counters and samples a :class:`~repro.net.transport.Network` records
    into ``registry``.

    The per-message path binds once: the series of a message kind or a
    host is taken from the registry the first time it is seen and kept, so
    a send or a delivery validates no labels. Every latency is observed
    once into the ``net.delivery.latency`` reservoir: count/sum/min/max
    are exact, the quantiles come from a uniform sample of the whole run.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._sent = registry.counter(
            SENT, "messages entering the network", labels=("kind",))
        self._delivered = registry.counter(
            DELIVERED, "messages handled per host — the Figure-1 hotspot metric",
            labels=("host",))
        self._dropped = registry.counter(
            DROPPED, "messages lost to failure, partition or drop rate")
        self._undeliverable = registry.counter(
            UNDELIVERABLE, "messages to unknown/departed recipients")
        self._unheard = registry.counter(
            UNHEARD, "link-local announcements no process on the machine "
            "listened for", labels=("kind",))
        self._malformed = registry.counter(
            MALFORMED, "arrivals dropped because their payload is not a JSON "
            "object", labels=("kind",))
        self._latency = registry.histogram(
            LATENCY, "end-to-end delivery latency (simulated time units)")
        self._bind()

    def _bind(self) -> None:
        """Take the series handles afresh: a registry reset detaches them."""
        self._sent_by_kind: Dict[str, _Count] = {}
        self._delivered_by_host: Dict[str, _Count] = {}
        self._drops = self._dropped.series()
        self._undeliverables = self._undeliverable.series()
        self._latencies = self._latency.series()

    # -- recording ------------------------------------------------------------

    def record_send(self, kind: str) -> None:
        sent = self._sent_by_kind.get(kind)
        if sent is None:
            sent = self._sent_by_kind[kind] = self._sent.series(kind=kind)
        sent.inc()

    def record_delivery(self, host_id: str, latency: float) -> None:
        delivered = self._delivered_by_host.get(host_id)
        if delivered is None:
            delivered = self._delivered_by_host[host_id] = \
                self._delivered.series(host=host_id)
        delivered.inc()
        self._latencies.observe(latency)

    def record_drop(self) -> None:
        self._drops.inc()

    def record_undeliverable(self) -> None:
        self._undeliverables.inc()

    def record_unheard(self, kind: str) -> None:  # rare: not bound
        self._unheard.inc(kind=kind)

    def record_malformed(self, kind: str) -> None:  # rare: not bound
        self._malformed.inc(kind=kind)

    def reset(self) -> None:
        """Zero the ``net.*`` series and bind the handles to the new ones."""
        self.registry.reset(_NET_METRICS)
        self._bind()

    # -- the pre-obs reading API (kept verbatim for benchmarks/tests) ---------

    @property
    def sent(self) -> int:
        return int(self._sent.total())

    @property
    def delivered(self) -> int:
        return int(self._delivered.total())

    @property
    def dropped(self) -> int:
        return int(self._dropped.total())

    @property
    def undeliverable(self) -> int:
        return int(self._undeliverable.total())

    @property
    def by_kind(self) -> Counter:
        return Counter({kind: int(count)
                        for kind, count in self._sent.by_label().items()})

    @property
    def host_load(self) -> Counter:
        """Messages handled per host — the hotspot metric for Figure 1."""
        return Counter({host: int(count)
                        for host, count in self._delivered.by_label().items()})

    @property
    def latencies(self) -> List[float]:
        """Bounded reservoir sample of delivery latencies (see class doc)."""
        return self._latency.samples

    @property
    def latency_count(self) -> int:
        """Exact number of latency observations (exceeds len(latencies))."""
        return self._latency.count

    def latency_summary(self) -> Dict[str, float]:
        return self._latency.summary()

    @property
    def max_host_load(self) -> int:
        loads = self._delivered.by_label()
        return int(max(loads.values())) if loads else 0

    @property
    def mean_host_load(self) -> float:
        loads = self._delivered.by_label()
        if not loads:
            return 0.0
        return sum(loads.values()) / len(loads)

    def hotspot_ratio(self) -> float:
        """max/mean host load: ~1 means balanced, large means a bottleneck."""
        mean = self.mean_host_load
        return self.max_host_load / mean if mean else 0.0
