"""Traffic statistics used by the benchmarks.

The Figure-1 experiment needs per-host load to show that the hierarchical
baseline develops a root hotspot while the overlay does not. The stats
object is owned by the :class:`~repro.net.transport.Network` and updated on
every send/deliver/drop, and by a receiving process on every duplicate.

:class:`MessageStats` is a facade over a
:class:`~repro.obs.metrics.MetricsRegistry`: the counters live as
``net.messages.*`` and ``net.dedup.*`` series, so any exporter sees the
same numbers the benchmarks report. The transport records straight into
those series, so a read from inside a callback sees every count so far.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.metrics import Counter as CounterMetric, MetricsRegistry, _Count

#: canonical metric names backing the facade
SENT = "net.messages.sent"
DELIVERED = "net.messages.delivered"
DROPPED = "net.messages.dropped"
UNDELIVERABLE = "net.messages.undeliverable"
UNHEARD = "net.messages.unheard"
MALFORMED = "net.messages.malformed"
UNHANDLED = "net.messages.unhandled"
#: the receivers' dedup windows (not zeroed by :meth:`MessageStats.reset`)
DUPLICATES = "net.dedup.suppressed"
REPLAYED = "net.dedup.replayed_replies"

_NET_METRICS = (SENT, DELIVERED, DROPPED, UNDELIVERABLE, UNHEARD, MALFORMED,
                UNHANDLED)


class _Bound(dict):
    """Label value -> that value's series of one counter, bound the first
    time the value is read: after that a read is a plain dict lookup, so
    the per-message path validates no labels and calls no method."""

    __slots__ = ("_counter", "_label")

    def __init__(self, counter: CounterMetric, label: str):
        super().__init__()
        self._counter = counter
        self._label = label

    def __missing__(self, value: str) -> _Count:
        series = self[value] = self._counter.series(**{self._label: value})
        return series


class MessageStats:
    """Counters a :class:`~repro.net.transport.Network` records into
    ``registry``.

    The per-message path binds once: the series of a message kind
    (:attr:`sent_series`) or a host (:attr:`delivered_series`) is taken
    from the registry the first time it is seen and kept, and the
    transport adds to its ``value`` in place.
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
        #: message kind -> its ``net.messages.sent`` series
        self.sent_series = _Bound(self._sent, "kind")
        #: host id -> its ``net.messages.delivered`` series
        self.delivered_series = _Bound(self._delivered, "host")
        self._drops = self._dropped.series()
        self._undeliverables = self._undeliverable.series()
        self._duplicates = self.registry.counter(DUPLICATES).series()
        self._replays = self.registry.counter(REPLAYED).series()

    # -- recording ------------------------------------------------------------

    def record_drop(self) -> None:
        self._drops.inc()

    def record_undeliverable(self) -> None:
        self._undeliverables.inc()

    def record_duplicate(self, replayed: bool) -> None:
        """A receiver's dedup window suppressed an arrival; ``replayed``
        when the reply cached for it was sent again."""
        self._duplicates.inc()
        if replayed:
            self._replays.inc()

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
