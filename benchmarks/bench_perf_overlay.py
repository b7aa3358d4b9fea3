"""PERF — the overlay's membership, dissemination and routing paths.

Three overlay hot paths, swept over scale:

* **Membership build** — joining N nodes. A join repairs only the
  newcomer's <= 2*LEAF_HALF ring neighbours from a bisect-maintained sorted
  ring, so the per-node cost should stay near-flat up the ladder.
* **Announce dissemination** — one full-overlay ``announce-range`` over the
  distribution tree, which delegates disjoint ring arcs and delivers in
  exactly N-1 messages.
* **Route-step throughput** — routing random keys across the built
  overlay, exercising the cached known-node views and precomputed leaf
  spans on every hop.

The gates are structural, not timed: a quiesced announce costs exactly N-1
messages and reaches every node with zero duplicate arrivals, a repeat
announce on the unchanged overlay is served entirely from the routing
tables' memoised views, and hop counts stay logarithmic. The full-refresh membership and the dedup flood these paths replaced
are test-side references (``tests/overlay/reference_membership.py``); the
equivalence proofs live in ``tests/overlay`` and the Hypothesis directory
property.

Results land in ``results/bench_perf_overlay.txt`` (human-readable) and
``results/BENCH_overlay.json`` (machine-readable).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_perf_overlay.py -q -s``
"""

import json
import pathlib
import random
import time

from repro.core.ids import GUID
from repro.net.transport import FixedLatency, Network
from repro.overlay.scinet import SCINet

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_overlay.json"

BUILD_SCALES = (50, 100, 200, 1000, 5000)
ANNOUNCE_SCALES = (100, 1000)
ROUTE_SCALES = (100, 1000)
ROUTES = 400


def build_overlay(n, seed=3):
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    sci = SCINet(net)
    for i in range(n):
        sci.create_node(f"h{i % 64}", range_name=f"r{i}")
    return net, sci


def measure_build(n):
    start = time.perf_counter()
    build_overlay(n)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "per_node_us": elapsed / n * 1e6}


def measure_announce(n):
    net, sci = build_overlay(n)
    net.run_until_idle()
    nodes = sci.nodes()
    body = {"range": "x", "cs": "cs-x", "places": ["room-1"]}
    before = net.stats.by_kind.get("o-bcast", 0)
    nodes[0].broadcast("announce-range", body)
    net.run_until_idle()
    reached = sum(1 for node in nodes if node.lookup_place("room-1") == "cs-x")
    messages = net.stats.by_kind.get("o-bcast", 0) - before
    # the first announce after the joins built every node's clockwise view;
    # a repeat on the unchanged overlay must read them all from the memo

    def memo_reads():
        return (sum(node.table.cache_hits for node in nodes),
                sum(node.table.cache_builds for node in nodes))

    hits, builds = memo_reads()
    nodes[0].broadcast("announce-range", body)
    net.run_until_idle()
    repeat_hits, repeat_builds = memo_reads()
    return {
        "messages": messages,
        "reached": reached,
        "dup_suppressed": int(net.obs.metrics.counter(
            "overlay.bcast.dup_suppressed").total()),
        "repeat_memo_hits": repeat_hits - hits,
        "repeat_memo_builds": repeat_builds - builds,
    }


def measure_route(n, routes=ROUTES):
    net, sci = build_overlay(n)
    net.run_until_idle()
    nodes = sci.nodes()
    rng = random.Random(7)
    keys = [GUID(rng.getrandbits(128)) for _ in range(routes)]
    origins = [nodes[rng.randrange(n)] for _ in range(routes)]
    start = time.perf_counter()
    for key, origin in zip(keys, origins):
        origin.route(key, "probe", {})
    net.run_until_idle()
    elapsed = time.perf_counter() - start
    steps = sci.total_routed()
    hops = net.obs.metrics.histogram("overlay.route.hops").series().summary()
    return {
        "routes": routes,
        "steps": steps,
        "steps_per_s": steps / elapsed if elapsed else float("inf"),
        "mean_hops": hops["mean"],
        "max_hops": hops["max"],
    }


# -- the report ----------------------------------------------------------------

class TestReportOverlayPerf:
    def test_report_build(self, report):
        baseline = _load_baseline()
        report("")
        report("PERF  overlay build: incremental ring membership")
        report(f"{'nodes':>6} | {'per node':>10}")
        per_node = {}
        for scale in BUILD_SCALES:
            per_node[scale] = measure_build(scale)["per_node_us"]
            report(f"{scale:>6} | {per_node[scale]:>8.0f}us")
            baseline["build"].append({
                "nodes": scale,
                "per_node_us": round(per_node[scale], 1),
            })
        growth = per_node[max(BUILD_SCALES)] / per_node[min(BUILD_SCALES)]
        report(f"  per-node growth {min(BUILD_SCALES)}->"
               f"{max(BUILD_SCALES)} nodes: {growth:.2f}x (same run)")
        _save_baseline(baseline)

    def test_report_announce(self, report):
        baseline = _load_baseline()
        report("")
        report("PERF  announce dissemination over the distribution tree")
        report(f"{'nodes':>6} | {'messages':>9} {'reached':>8} "
               f"{'dups suppressed':>16} {'repeat memo hits/builds':>24}")
        for scale in ANNOUNCE_SCALES:
            tree = measure_announce(scale)
            memo = f"{tree['repeat_memo_hits']}/{tree['repeat_memo_builds']}"
            report(f"{scale:>6} | {tree['messages']:>9} "
                   f"{tree['reached']:>8} {tree['dup_suppressed']:>16} "
                   f"{memo:>24}")
            assert tree["reached"] == scale
            assert tree["messages"] == scale - 1  # exactly-once delivery
            assert tree["dup_suppressed"] == 0
            assert tree["repeat_memo_hits"] >= scale
            assert tree["repeat_memo_builds"] == 0
            baseline["announce"].append({"nodes": scale, **tree})
        _save_baseline(baseline)

    def test_report_route_throughput(self, report):
        baseline = _load_baseline()
        report("")
        report("PERF  route-step throughput over the overlay")
        report(f"{'nodes':>6} | {'steps/s':>10} {'mean hops':>10} "
               f"{'max hops':>9}")
        for scale in ROUTE_SCALES:
            run = measure_route(scale)
            report(f"{scale:>6} | {run['steps_per_s']:>10.0f} "
                   f"{run['mean_hops']:>10.2f} {run['max_hops']:>9.0f}")
            baseline["route"].append({
                "nodes": scale,
                "routes": run["routes"],
                "steps_per_s": round(run["steps_per_s"], 1),
                "mean_hops": round(run["mean_hops"], 3),
                "max_hops": run["max_hops"],
            })
            # hops must stay logarithmic on the sparse ring-seeded tables
            assert run["mean_hops"] <= 5.0
            assert run["max_hops"] <= 10
        _save_baseline(baseline)


def _load_baseline():
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH, encoding="utf-8") as handle:
            document = json.load(handle)
        # re-runs replace their own section, keeping the others' last values
        return {"schema": "sci.bench.overlay/2",
                "build": [], "announce": [], "route": [],
                "previous": {k: document.get(k)
                             for k in ("build", "announce", "route")}}
    return {"schema": "sci.bench.overlay/2",
            "build": [], "announce": [], "route": []}


def _save_baseline(document):
    RESULTS_DIR.mkdir(exist_ok=True)
    merged = {"schema": document["schema"]}
    previous = document.pop("previous", {})
    for section in ("build", "announce", "route"):
        merged[section] = document[section] or previous.get(section) or []
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
