"""The declared metrics catalog: every ``sci.*`` series the tree may emit.

A metric that is not declared here does not exist. This is the only place
a metric's kind, help and label names are written:
``MetricsRegistry.counter/gauge/histogram(name)`` builds the metric from its
entry and raises on an undeclared name or another kind's method. The static
analysis suite (:mod:`repro.analysis.catalog_lint`) cross-checks every such
call site in ``src/`` against this table and fails CI on undeclared names,
kind mismatches, orphaned declarations and names that break the
``<layer>.<subsystem>.<event>`` convention (three or more dot segments,
lower_snake words).

Declarations are pure literals on purpose: the linter reads this file as an
AST (it never imports analysed code), so every ``_declare(...)`` call below
must keep literal arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric series."""

    name: str
    kind: str
    help: str
    labels: Tuple[str, ...] = ()


CATALOG: Dict[str, MetricSpec] = {}


def _declare(name: str, kind: str, help: str,
             labels: Tuple[str, ...] = ()) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
    if name in CATALOG:
        raise ValueError(f"metric {name!r} declared twice")
    CATALOG[name] = MetricSpec(name=name, kind=kind, help=help, labels=labels)


# -- net: transport, dedup, retry ---------------------------------------------

_declare("net.messages.sent", "counter",
         "messages entering the network", labels=("kind",))
_declare("net.messages.delivered", "counter",
         "messages handled per host — the Figure-1 hotspot metric",
         labels=("host",))
_declare("net.messages.dropped", "counter",
         "messages lost to failure, partition or drop rate")
_declare("net.messages.undeliverable", "counter",
         "messages to unknown/departed recipients")
_declare("net.messages.unheard", "counter",
         "link-local announcements no process on the machine listened for",
         labels=("kind",))
_declare("net.messages.malformed", "counter",
         "arrivals refused: a payload that is not a JSON object, or a "
         "request that does not match its row in repro.net.wire",
         labels=("kind",))
_declare("net.messages.unhandled", "counter",
         "arrivals the recipient has no _handle_<kind> method for, a reply "
         "no request waits for any more included",
         labels=("kind",))
_declare("net.dedup.suppressed", "counter",
         "duplicate (sender, msg_id) arrivals dropped before the handler")
_declare("net.dedup.replayed_replies", "counter",
         "cached replies re-sent in response to duplicate requests")
_declare("net.retry.attempts", "counter",
         "request retransmissions, by request kind", labels=("kind",))
_declare("net.retry.exhausted", "counter",
         "requests whose whole retry budget expired unanswered",
         labels=("kind",))
_declare("net.retry.recovered", "counter",
         "requests answered only after at least one retransmission",
         labels=("kind",))

# -- events: mediator dispatch and sequenced streams --------------------------

_declare("mediator.events.published", "counter",
         "events published per range", labels=("range",))
_declare("mediator.events.delivered", "counter",
         "matched events forwarded to subscribers", labels=("range",))
_declare("mediator.index.hits", "counter",
         "dispatch candidates served from exact-match index buckets",
         labels=("range",))
_declare("mediator.index.residual_scans", "counter",
         "dispatch candidates scanned from the non-indexable residual list",
         labels=("range",))
_declare("mediator.retained.evicted", "counter",
         "retained events dropped by the oldest-first cap", labels=("range",))
_declare("mediator.seq.ack_exhausted", "counter",
         "reliable deliveries whose whole retransmission budget expired",
         labels=("range",))
_declare("mediator.seq.window_shed", "counter",
         "unacked deliveries given up because a subscriber's window was full",
         labels=("range",))
_declare("mediator.seq.resync_replays", "counter",
         "retained events replayed to resync a gapped subscriber",
         labels=("range",))
_declare("mediator.seq.gaps", "counter",
         "sequence holes opened in subscriber streams")
_declare("mediator.seq.dup_dropped", "counter",
         "stale or duplicate sequenced deliveries dropped")
_declare("mediator.seq.resyncs", "counter",
         "resync requests issued for holes that outlived retransmission")
_declare("mediator.opgraph.nodes", "gauge",
         "live deduplicated filter nodes", labels=("range",))
_declare("mediator.opgraph.reuse_hits", "counter",
         "subscriptions served by an existing filter node",
         labels=("range",))
_declare("mediator.opgraph.evals", "counter",
         "filter evaluations on the publish path", labels=("range",))
_declare("mediator.opgraph.fanout", "counter",
         "filter-table deliveries fanned out to sinks", labels=("range",))

# -- overlay: SCINET routing, broadcast, failure detection --------------------

_declare("overlay.node.load", "counter",
         "route steps handled per overlay node", labels=("node",))
_declare("overlay.route.delivered", "counter",
         "routed payloads that reached their key owner")
_declare("overlay.route.hops", "histogram",
         "overlay hops per delivered route")
_declare("overlay.directory.lookups", "counter",
         "replicated range-directory reads", labels=("hit",))
_declare("overlay.bcast.sent", "counter",
         "broadcast messages forwarded, by mode", labels=("mode",))
_declare("overlay.bcast.dup_suppressed", "counter",
         "duplicate broadcast arrivals suppressed by the dedup set")
_declare("overlay.fd.heartbeats", "counter",
         "o-hb probes sent to leaf neighbours")
_declare("overlay.fd.suspicions", "counter",
         "leaf neighbours suspected after fd_timeout of silence")
_declare("overlay.fd.removals", "counter",
         "members ejected by heartbeat suspicion (vs oracle fail calls)")

# -- hierarchy baseline -------------------------------------------------------

_declare("hierarchy.node.load", "counter",
         "messages handled per tree server", labels=("node", "role"))
_declare("hierarchy.queue.delay", "histogram",
         "service-time queueing delay at tree servers")

# -- server: registrar and context server -------------------------------------

_declare("registrar.lease.renewals", "counter",
         "leases renewed by Range Service heartbeats", labels=("range",))
_declare("registrar.lease.unknown", "counter",
         "heartbeat-listed entities this Registrar does not hold",
         labels=("range",))
_declare("cs.query.routed", "counter",
         "queries routed per range and outcome", labels=("range", "status"))

# -- context ledger -----------------------------------------------------------

_declare("cs.ledger.appends", "counter",
         "ledger entries appended, by entry kind",
         labels=("range", "kind"))
_declare("cs.ledger.replays", "counter",
         "replay projections rebuilt from a ledger prefix",
         labels=("range",))
_declare("cs.ledger.asof_reads", "counter",
         "historical as-of views answered from the ledger",
         labels=("range",))

# -- composition: configuration graphs and resolver ---------------------------

_declare("config.graph.builds", "counter",
         "configuration graphs instantiated", labels=("range",))
_declare("config.graph.repairs", "counter",
         "configurations re-composed after a failure", labels=("range",))
_declare("config.graph.reuse_hits", "counter",
         "queries served by an existing graph", labels=("range",))
_declare("resolver.index.hits", "counter",
         "candidate lookups served from the profile index", labels=("range",))
_declare("resolver.index.rebuilds", "counter",
         "builds of the profile index: at most one per resolver",
         labels=("range",))
_declare("resolver.index.deltas", "counter",
         "membership changes reported to the profile index",
         labels=("range",))

# -- experiments --------------------------------------------------------------

_declare("fig1.delivery.latency", "histogram",
         "end-to-end delivery time of the Figure-1 workload")
_declare("fig1.route.hops", "histogram",
         "hops per delivered Figure-1 message")
