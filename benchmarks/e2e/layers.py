"""Per-layer metrics of one traced repeat.

Times come from the span recorder (self time per layer, wrapper cost
removed) and are scaled to calibrated seconds by the machine's speed over
the whole repeat (``pacing``; the reference slices run between spans, in the
root's own time, and are taken out of it). Counts are read from public
accessors and the deployment's metrics registry at the end of the run, and
repeat exactly for one seed. A counter the current default path never
declares (the operator graph's, while it is not the default engine) reads 0
and its name is listed as absent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from catalog import PER_LAYER
from deployment import Deployment, percentile
from trace import SpanRecorder


def layer_metrics(dep: Deployment, recorder: SpanRecorder,
                  summary: Dict[str, Any],
                  untraced_s: float) -> Tuple[Dict[str, float], List[str]]:
    """``({metric: value}, [absent names])`` for every declared metric;
    ``untraced_s`` is the calibrated cost of the same repeat without spans."""
    sci = dep.sci
    registry = sci.network.obs.metrics
    servers = list(sci.ranges.values())
    absent = [f"path:{path}" for path in summary["absent"]]

    def total(name: str, **labels: Any) -> float:
        metric = registry.get(name)
        if metric is None:
            absent.append(f"counter:{name}")
            return 0.0
        if labels:
            return metric.value(**labels)
        return float(sum(metric.items().values()))

    def calls(path: str) -> float:
        row = summary["paths"].get(path)
        return float(row["calls"]) if row else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    pacer = dep.pacer
    whole = ((0.0, 0), (0.0, len(pacer.slice_times)))
    speed = pacer.speed(*whole)
    sliced = sum(pacer.slice_times)
    values: Dict[str, float] = {}
    for layer, row in summary["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"] * speed
        values[f"{layer}.calls"] = float(row["calls"])
    attributed = sum(row["self_s"] for row in summary["layers"].values())
    stats = sci.network.stats
    events = sci.scheduler.events_processed
    hops = registry.get("overlay.route.hops")
    resolve_ms = sorted(1000.0 * speed * d for d in recorder.durations(
        "repro.composition.resolver.QueryResolver.resolve"))
    appends = summary["paths"].get("repro.ledger.ledger.ContextLedger.append")
    hits = total("mediator.index.hits")
    residual = total("mediator.index.residual_scans")
    values.update({
        "net.sched_events": float(events),
        "net.sched_us_per_event": ratio(1e6 * untraced_s, events),
        "net.messages_sent": float(stats.sent),
        "net.messages_delivered": float(stats.delivered),
        "net.messages_dropped": float(stats.dropped + stats.undeliverable),
        "net.rpc_retries": total("net.retry.attempts"),
        "net.dedup_hits": total("net.dedup.suppressed"),
        "net.pending_peak": float(dep.pending_peak),
        "obs.counter_incs": calls("repro.obs.metrics.Counter.inc"),
        "obs.histogram_observes": calls("repro.obs.metrics.Histogram.observe"),
        "obs.spans_started": calls("repro.obs.tracing.Tracer.start"),
        "obs.share_of_run": ratio(values.get("obs.self_s", 0.0), attributed),
        "events.publish_calls": calls(
            "repro.events.mediator.EventMediator.publish"),
        "events.subscribe_calls": calls(
            "repro.events.mediator.EventMediator.add_subscription"),
        "events.unsubscribe_calls": calls(
            "repro.events.mediator.EventMediator.remove_subscription"),
        "events.index_hits": hits,
        "events.residual_scans": residual,
        "events.match_ratio": ratio(total("mediator.events.delivered"),
                                    hits + residual),
        "events.retransmits": total("net.retry.attempts", kind="event"),
        "events.resync_replays": total("mediator.seq.resync_replays"),
        "events.retained": float(sum(
            len(server.mediator.all_retained_entries()) for server in servers)),
        "query.parse_calls": calls("repro.query.model.Query.from_wire"),
        "query.which_evals": calls("repro.query.selection.WhichClause.select"),
        "query.opgraph_nodes": total("mediator.opgraph.nodes"),
        "query.opgraph_evals": total("mediator.opgraph.evals"),
        "query.opgraph_reuse_ratio": ratio(
            total("mediator.opgraph.reuse_hits"),
            total("mediator.opgraph.reuse_hits")
            + total("mediator.opgraph.nodes")),
        "composition.resolve_calls": float(sum(
            server.resolver.resolutions for server in servers)),
        "composition.resolve_ms_p50": percentile(resolve_ms, 0.50),
        "composition.resolve_ms_p95": percentile(resolve_ms, 0.95),
        "composition.index_rebuilds": float(sum(
            server.resolver.index_rebuilds for server in servers)),
        "composition.index_hits": float(sum(
            server.resolver.index_hits for server in servers)),
        "composition.backtracks": float(sum(
            server.resolver.backtracks for server in servers)),
        "composition.configs_built": float(sum(
            server.configurations.builds for server in servers)),
        "composition.configs_reused": float(sum(
            server.configurations.reuse_hits for server in servers)),
        "composition.repairs": float(sum(
            server.configurations.repairs for server in servers)),
        "server.queries_received": float(sum(
            server.queries_received for server in servers)),
        "server.queries_executed": float(sum(
            server.queries_executed for server in servers)),
        "server.queries_forwarded": float(sum(
            server.queries_forwarded for server in servers)),
        "server.queries_parked": float(sum(
            server.queries_parked for server in servers)),
        "server.registrations": float(sum(
            server.registrar.registrations for server in servers)),
        "server.lease_renewals": float(stats.by_kind.get("heartbeat", 0)),
        "server.lease_expiries": float(sum(
            server.registrar.evictions for server in servers)),
        "ledger.appends": total("cs.ledger.appends"),
        "ledger.append_us_mean": (ratio(1e6 * speed * appends["total_s"],
                                        appends["calls"]) if appends else 0.0),
        "ledger.entries": float(sum(
            len(chain) for server in servers for chain in server.ledgers())),
        "ledger.verify_s": dep.verify_s * speed,
        "ledger.replay_s": dep.replay_s * speed,
        "overlay.joins": calls("repro.overlay.scinet.SCINet.join"),
        "overlay.bcast_sent": total("overlay.bcast.sent"),
        "overlay.bcast_dup_suppressed": total("overlay.bcast.dup_suppressed"),
        "overlay.route_hops_mean": hops.mean() if hops is not None else 0.0,
        "overlay.directory_entries": float(sum(
            len(node.directory) for node in sci.scinet.nodes())),
        "overlay.range_joins_per_s": ratio(len(dep.plan["ranges"]),
                                           dep.phase_s["build"]),
        "entities.events_consumed": float(sum(
            len(app.received) for app in dep.apps.values())),
        "entities.acks_sent": float(stats.by_kind.get("event-ack", 0)),
        "entities.reassembler_holes": total("mediator.seq.gaps"),
        "location.updates": calls(
            "repro.location.service.LocationService.update"),
        "location.handoffs": float(sci.handoff.handoffs),
        "trace.overhead_ratio": ratio((summary["root_s"] - sliced) * speed,
                                      untraced_s),
        "trace.gc_s": dep.gc_s * speed,
        "trace.unattributed_s": speed * max(
            0.0, summary["unattributed_s"] - dep.gc_s - sliced),
        "trace.root_s": (summary["root_s"] - sliced) * speed,
    })
    for name, _unit, _better in PER_LAYER:
        if name not in values:
            absent.append(f"layer:{name}")
            values[name] = 0.0
    return ({name: values[name] for name, _u, _b in PER_LAYER},
            list(dict.fromkeys(absent)))
