"""Cross-cutting observability for the SCI reproduction.

The paper's central claims are latency and load claims — overlay routing
avoids hierarchy hotspots, re-composition is fast, discovery latency stays
flat — so every subsystem that carries a query or an event needs to be
measurable. This package provides the instruments the rest of the
middleware records into. All of them read the simulated clock
(``scheduler.now``), never the host's, so two runs with one seed record
identical artefacts:

``repro.obs.metrics``
    A metrics registry (counters, gauges, histograms with labels) with
    isolated snapshots and JSON export. Hot sites bind a series once
    (``Counter.series``/``Histogram.series``) and update it without
    re-validating labels; :class:`repro.net.stats.MessageStats` is a
    facade over the ``net.*`` series.
``repro.obs.tracing``
    Structured traces: spans with parent/child links and simulated-time
    durations, carried across processes on :class:`repro.net.message.Message`
    metadata, so one query can be followed CS -> overlay hops -> remote
    resolver -> mediator delivery.
``repro.obs.export``
    JSON-lines span export, metrics JSON artefacts with a validating
    mini-schema, and plain-text summary tables.
``repro.obs.hub``
    :class:`~repro.obs.hub.Observability` bundles one registry and one
    tracer per deployment; every :class:`~repro.net.transport.Network`
    owns one as ``network.obs``.

(:mod:`repro.obs.experiments` holds instrumented experiment runners shared
by the benchmarks and the regression tests; it is imported explicitly, not
re-exported here, because it pulls in the overlay layers.)
"""

from repro.obs.hub import Observability
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Reservoir
from repro.obs.tracing import Span, Trace, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Reservoir",
    "Span",
    "Trace",
    "Tracer",
]
