"""Traffic statistics used by the benchmarks.

The Figure-1 experiment needs per-host load to show that the hierarchical
baseline develops a root hotspot while the overlay does not. The stats
object is owned by the :class:`~repro.net.transport.Network` and updated on
every send/deliver/drop.

:class:`MessageStats` is a facade over a
:class:`~repro.obs.metrics.MetricsRegistry`: the counters live as
``net.messages.*`` series, so any exporter sees the same numbers the
benchmarks report. The transport records straight into those series, so a
read from inside a callback sees every count so far.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.obs.metrics import MetricsRegistry, _Count

#: canonical metric names backing the facade
SENT = "net.messages.sent"
DELIVERED = "net.messages.delivered"
DROPPED = "net.messages.dropped"
UNDELIVERABLE = "net.messages.undeliverable"
UNHEARD = "net.messages.unheard"
MALFORMED = "net.messages.malformed"
UNHANDLED = "net.messages.unhandled"

_NET_METRICS = (SENT, DELIVERED, DROPPED, UNDELIVERABLE, UNHEARD, MALFORMED,
                UNHANDLED)


class MessageStats:
    """Counters a :class:`~repro.net.transport.Network` records into
    ``registry``.

    The per-message path binds once: the series of a message kind or a
    host is taken from the registry the first time it is seen and kept, so
    a send or a delivery validates no labels.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._sent = registry.counter(SENT)
        self._delivered = registry.counter(DELIVERED)
        self._dropped = registry.counter(DROPPED)
        self._undeliverable = registry.counter(UNDELIVERABLE)
        self._unheard = registry.counter(UNHEARD)
        self._malformed = registry.counter(MALFORMED)
        self._unhandled = registry.counter(UNHANDLED)
        self._bind()

    def _bind(self) -> None:
        """Take the series handles afresh: a registry reset detaches them."""
        self._sent_by_kind: Dict[str, _Count] = {}
        self._delivered_by_host: Dict[str, _Count] = {}
        self._drops = self._dropped.series()
        self._undeliverables = self._undeliverable.series()

    # -- recording ------------------------------------------------------------

    def record_send(self, kind: str) -> None:
        sent = self._sent_by_kind.get(kind)
        if sent is None:
            sent = self._sent_by_kind[kind] = self._sent.series(kind=kind)
        sent.inc()

    def record_delivery(self, host_id: str) -> None:
        delivered = self._delivered_by_host.get(host_id)
        if delivered is None:
            delivered = self._delivered_by_host[host_id] = \
                self._delivered.series(host=host_id)
        delivered.inc()

    def record_drop(self) -> None:
        self._drops.inc()

    def record_undeliverable(self) -> None:
        self._undeliverables.inc()

    def record_unheard(self, kind: str) -> None:  # rare: not bound
        self._unheard.inc(kind=kind)

    def record_malformed(self, kind: str) -> None:  # rare: not bound
        self._malformed.inc(kind=kind)

    def record_unhandled(self, kind: str) -> None:  # rare: not bound
        self._unhandled.inc(kind=kind)

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
