"""Instrumented experiment runners and offline claim checkers.

The Figure-1 benchmark and the overlay regression tests need the same
thing: run the two routing systems under an identical workload and read
the results *from the metrics registry* rather than from ad-hoc counters.
The artefact the runners produce (see :func:`figure1_artifact`) is a
self-contained multi-run document — the paper's hotspot and log-growth
claims can be re-checked from the JSON alone, without re-running the
simulation (:func:`check_hotspot_claim`, :func:`check_log_growth_claim`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional

from repro.core.ids import GUID
from repro.net.transport import FixedLatency, Network
from repro.obs.export import METRICS_SCHEMA
from repro.overlay.hierarchy import HierarchyNetwork
from repro.overlay.scinet import SCINet

#: workload defaults shared with benchmarks/bench_fig1_scinet.py
MESSAGES = 300
SERVICE_TIME = 0.05

#: metric the runners record end-to-end delivery time into
FIG1_LATENCY = "fig1.delivery.latency"
#: metric the runners record per-delivery hop counts into
FIG1_HOPS = "fig1.route.hops"


def run_overlay_instrumented(n: int, messages: int = MESSAGES,
                             seed: int = 0) -> Dict[str, Any]:
    """Route a uniform workload over an N-range SCINET; return a run record."""
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    sci = SCINet(net)
    nodes = [sci.create_node(f"h{i}", range_name=f"r{i}") for i in range(n)]
    latency = net.obs.metrics.histogram(
        FIG1_LATENCY, "end-to-end delivery time of the Figure-1 workload")
    hops_hist = net.obs.metrics.histogram(
        FIG1_HOPS, "hops per delivered Figure-1 message")
    rng = random.Random(seed)
    for _ in range(messages):
        key = GUID(rng.getrandbits(128))
        target = sci.closest_node(key)
        sent_at = net.scheduler.now

        def on_delivery(kind, body, hop_count, _t=sent_at):
            hops_hist.observe(hop_count)
            latency.observe(net.scheduler.now - _t)

        target.on_delivery.append(on_delivery)
        nodes[rng.randrange(n)].route(key, "probe", {})
        net.scheduler.run_for(40)
        target.on_delivery.remove(on_delivery)
    return _run_record("overlay", n, messages, seed, net)


def run_hierarchy_instrumented(n: int, messages: int = MESSAGES,
                               seed: int = 0,
                               service_time: float = SERVICE_TIME) -> Dict[str, Any]:
    """Route the same workload over a server tree; return a run record."""
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    tree = HierarchyNetwork(net, leaf_count=n, branching=4,
                            service_time=service_time)
    latency = net.obs.metrics.histogram(
        FIG1_LATENCY, "end-to-end delivery time of the Figure-1 workload")
    hops_hist = net.obs.metrics.histogram(
        FIG1_HOPS, "hops per delivered Figure-1 message")
    rng = random.Random(seed)
    for _ in range(messages):
        source = rng.randrange(n)
        target = rng.randrange(n)
        sent_at = net.scheduler.now
        leaf = tree.leaf(target)

        def on_delivery(kind, body, hop_count, _t=sent_at):
            hops_hist.observe(hop_count)
            latency.observe(net.scheduler.now - _t)

        leaf.on_delivery.append(on_delivery)
        tree.leaf(source).route(f"leaf-{target}", "probe", {})
        net.scheduler.run_for(40)
        leaf.on_delivery.remove(on_delivery)
    return _run_record("hierarchy", n, messages, seed, net)


def _run_record(system: str, n: int, messages: int, seed: int,
                net: Network) -> Dict[str, Any]:
    snapshot = net.obs.metrics.snapshot()
    return {
        "system": system,
        "n": n,
        "messages": messages,
        "seed": seed,
        "metrics": snapshot,
        "summary": run_summary(system, snapshot),
    }


# -- reading run records (works on live snapshots AND loaded JSON) ------------


def series_values(snapshot: Dict[str, Any], name: str) -> Dict[str, float]:
    """``{joined-label-values: value}`` for a counter/gauge in a snapshot."""
    metric = snapshot.get(name)
    if metric is None:
        return {}
    out = {}
    for entry in metric["series"]:
        key = "/".join(str(v) for v in entry["labels"].values()) or "-"
        out[key] = entry["value"]
    return out


def histogram_summary(snapshot: Dict[str, Any], name: str,
                      labels: Optional[Dict[str, Any]] = None) -> Optional[Dict[str, float]]:
    """The summary dict of one histogram series (default: the bare series)."""
    metric = snapshot.get(name)
    if metric is None:
        return None
    wanted = labels or {}
    for entry in metric["series"]:
        if entry["labels"] == wanted:
            return entry["summary"]
    return None


def run_summary(system: str, snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Headline numbers for one run, derived purely from the snapshot."""
    load_metric = ("overlay.node.load" if system == "overlay"
                   else "hierarchy.node.load")
    loads = series_values(snapshot, load_metric)
    mean_load = (sum(loads.values()) / len(loads)) if loads else 0.0
    hops = histogram_summary(snapshot, FIG1_HOPS) or {}
    latency = histogram_summary(snapshot, FIG1_LATENCY) or {}
    summary: Dict[str, Any] = {
        "delivered": int(hops.get("count", 0)),
        "hops": hops.get("mean", 0.0),
        "latency": latency.get("mean", 0.0),
        "max_load": max(loads.values()) if loads else 0,
        "mean_load": mean_load,
        "hotspot": (max(loads.values()) / mean_load) if mean_load else 0.0,
    }
    if system == "hierarchy":
        root = [value for key, value in loads.items() if key.endswith("/root")]
        summary["root_load"] = root[0] if root else 0
    return summary


# -- the artefact -------------------------------------------------------------


def figure1_artifact(sizes: Iterable[int] = (8, 32, 128),
                     messages: int = MESSAGES,
                     seed: int = 0,
                     meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run both systems at each size; return the multi-run metrics document."""
    runs: List[Dict[str, Any]] = []
    for n in sizes:
        runs.append(run_overlay_instrumented(n, messages, seed))
        runs.append(run_hierarchy_instrumented(n, messages, seed))
    return {
        "schema": METRICS_SCHEMA,
        "meta": {"experiment": "fig1-scinet-vs-hierarchy",
                 "messages": messages, "seed": seed, **(meta or {})},
        "runs": runs,
    }


def _find_run(artifact: Dict[str, Any], system: str, n: int) -> Dict[str, Any]:
    for run in artifact["runs"]:
        if run["system"] == system and run["n"] == n:
            return run
    raise KeyError(f"no {system} run at n={n} in artifact")


def check_hotspot_claim(artifact: Dict[str, Any], n: int) -> Dict[str, Any]:
    """Figure-1 hotspot shape, re-checked offline from the artefact.

    The hierarchy's *root server* handles more messages than the busiest
    overlay node does — the bottleneck the overlay design removes.
    """
    tree = _find_run(artifact, "hierarchy", n)
    overlay = _find_run(artifact, "overlay", n)
    root_load = tree["summary"].get("root_load", 0)
    overlay_max = overlay["summary"]["max_load"]
    return {
        "n": n,
        "hierarchy_root_load": root_load,
        "overlay_max_load": overlay_max,
        "hierarchy_hotspot": tree["summary"]["hotspot"],
        "overlay_hotspot": overlay["summary"]["hotspot"],
        "ok": (root_load > overlay_max
               and tree["summary"]["hotspot"] > overlay["summary"]["hotspot"]),
    }


def check_log_growth_claim(artifact: Dict[str, Any], small_n: int,
                           large_n: int,
                           max_extra_hops: float = 2.5) -> Dict[str, Any]:
    """Overlay hop count grows ~log16(N), not linearly, across the sizes."""
    small = _find_run(artifact, "overlay", small_n)["summary"]["hops"]
    large = _find_run(artifact, "overlay", large_n)["summary"]["hops"]
    return {
        "small_n": small_n, "large_n": large_n,
        "small_hops": small, "large_hops": large,
        "ok": large < small + max_extra_hops,
    }
