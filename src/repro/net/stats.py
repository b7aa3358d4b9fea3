"""Traffic statistics used by the benchmarks.

The Figure-1 experiment needs per-host load to show that the hierarchical
baseline develops a root hotspot while the overlay does not, and delivery
latency samples to show the two are otherwise comparable. The stats object
is owned by the :class:`~repro.net.transport.Network` and updated on every
send/deliver/drop.

Since the :mod:`repro.obs` subsystem landed, :class:`MessageStats` is a
facade over a :class:`~repro.obs.metrics.MetricsRegistry` — the counters
live as ``net.messages.*`` series and the latency samples in the bounded
``net.delivery.latency`` histogram reservoir, so arbitrarily long runs keep
memory flat and any exporter sees the same numbers the benchmarks report.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, Reservoir

#: canonical metric names backing the facade
SENT = "net.messages.sent"
DELIVERED = "net.messages.delivered"
DROPPED = "net.messages.dropped"
UNDELIVERABLE = "net.messages.undeliverable"
UNHEARD = "net.messages.unheard"
LATENCY = "net.delivery.latency"

_NET_METRICS = (SENT, DELIVERED, DROPPED, UNDELIVERABLE, UNHEARD, LATENCY)


class MessageStats:
    """Counters and samples accumulated by a :class:`~repro.net.transport.Network`.

    Constructed bare (``MessageStats()``) it owns a private registry;
    constructed with one it records into shared, exportable series.
    ``latency_reservoir`` bounds how many raw latency samples are retained
    (count/sum/min/max stay exact regardless).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 latency_reservoir: int = 2048):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sent = self.registry.counter(
            SENT, "messages entering the network", labels=("kind",))
        self._delivered = self.registry.counter(
            DELIVERED, "messages handled per host — the Figure-1 hotspot metric",
            labels=("host",))
        self._dropped = self.registry.counter(
            DROPPED, "messages lost to failure, partition or drop rate")
        self._undeliverable = self.registry.counter(
            UNDELIVERABLE, "messages to unknown/departed recipients")
        self._unheard = self.registry.counter(
            UNHEARD, "link-local announcements no process on the machine "
            "listened for", labels=("kind",))
        self._latency = self.registry.histogram(
            LATENCY, "end-to-end delivery latency (simulated time units)",
            reservoir_size=latency_reservoir)

    # -- recording ------------------------------------------------------------

    def record_send(self, kind: str) -> None:
        self._sent.inc(kind=kind)

    def record_delivery(self, host_id: str, latency: float) -> None:
        self._delivered.inc(host=host_id)
        self._latency.observe(latency)

    def record_drop(self) -> None:
        self._dropped.inc()

    def record_undeliverable(self) -> None:
        self._undeliverable.inc()

    def record_unheard(self, kind: str) -> None:  # rare: not staged
        self._unheard.inc(kind=kind)

    def merge_buffer(self, buffer: "StatsBuffer") -> None:
        """Fold the staging buffer into the registry series.

        Counts, sums and min/max merge exactly; the latency reservoir
        receives the buffer's bounded sample slice (see
        :meth:`repro.obs.metrics.Reservoir.merge_summary`), so the
        *quantile sample* — never the totals — is the one statistic whose
        composition depends on where the flushes fell. The buffer is reset
        for reuse.
        """
        for kind, count in buffer.sent.items():
            self._sent.inc(count, kind=kind)
        for host, count in buffer.delivered.items():
            self._delivered.inc(count, host=host)
        if buffer.dropped:
            self._dropped.inc(buffer.dropped)
        if buffer.undeliverable:
            self._undeliverable.inc(buffer.undeliverable)
        latency = buffer.latency
        if latency.count:
            self._latency.merge_summary(latency.count, latency.total,
                                        latency.min, latency.max,
                                        latency.samples)
        buffer.reset()

    def reset(self) -> None:
        self.registry.reset(_NET_METRICS)

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


class StatsBuffer:
    """Staging for :class:`MessageStats` — the transport's per-delivery
    fast path.

    Scheduler callbacks record here with plain dict/float updates — no
    label validation, no registry lookups — and the owning
    :class:`~repro.net.transport.Network` folds the buffer into the
    registry when the scheduler quiesces: the staging update is several
    times cheaper than a labelled counter ``inc``.

    Latencies go through a seeded :class:`~repro.obs.metrics.Reservoir`,
    so the slice handed to the registry is a uniform sample of the whole
    flush window (count/sum/min/max stay exact), however long the run.
    """

    __slots__ = ("sent", "delivered", "dropped", "undeliverable", "latency")

    def __init__(self, sample_cap: int = 512, seed: int = 0):
        self.latency = Reservoir(sample_cap, seed)
        self.reset()

    def reset(self) -> None:
        self.sent: Dict[str, int] = {}
        self.delivered: Dict[str, int] = {}
        self.dropped = 0
        self.undeliverable = 0
        self.latency.reset()

    # mirror of the MessageStats recording API, so call sites can treat
    # "the stats sink for the current context" polymorphically

    def record_send(self, kind: str) -> None:
        self.sent[kind] = self.sent.get(kind, 0) + 1

    def record_delivery(self, host_id: str, latency: float) -> None:
        self.delivered[host_id] = self.delivered.get(host_id, 0) + 1
        self.latency.observe(latency)

    def record_drop(self) -> None:
        self.dropped += 1

    def record_undeliverable(self) -> None:
        self.undeliverable += 1

    @property
    def empty(self) -> bool:
        return not (self.sent or self.delivered or self.dropped
                    or self.undeliverable)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; ``fraction`` in [0, 1]."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """mean / p50 / p95 / max summary used by the bench reports."""
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "max": max(samples),
    }
