"""PERF — shared operator-graph dispatch under look-alike subscriptions.

The worst case for per-subscription dispatch is many *look-alike*
subscriptions: ``And(type, floor == k)`` shapes drawn from a small
Zipf-popular template pool, where a per-subscription index's type bucket
degenerates to a linear scan over thousands of structurally identical
filters. The mediator compiles every subscription into a deduplicated
incremental DAG — one node per canonical shape — so a publish costs one
evaluation per *distinct* shape plus pure fan-out, independent of how
many subscriptions share each shape.

Each scale row grows the look-alike tracker table a decade — 10^3, 10^4,
10^5 — from a 64-template pool under the open-loop workload generator
(diurnal Poisson arrivals, Zipf-1.1 subjects, seeded churn). There is one
engine, so nothing is raced; that its delivery logs equal a linear scan's
is proven in ``tests/opgraph`` and re-checked on this workload by
``scripts/smoke_perf.py``, which passes the test-side reference scan as
``mediator_class``.

Gates, per row: the node-reuse ratio stays above ``MIN_REUSE`` and the
live node count stays at the template pool's size however many trackers
share it. Results land in ``results/bench_perf_opgraph.txt`` and
``results/BENCH_opgraph.json``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_perf_opgraph.py -q -s``
"""

import hashlib
import json
import pathlib
import time

from repro.apps.workload import OpenLoopWorkload, WorkloadConfig
from repro.core.ids import GuidFactory
from repro.events.mediator import EventMediator
from repro.net.transport import FixedLatency, Network

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_opgraph.json"

#: materialisations served by an existing node, at every scale
MIN_REUSE = 0.9

#: look-alike tracker counts per scale row
SCALES = [1_000, 10_000, 100_000]

#: templates in the look-alike pool (Zipf-1.1 popular); publish traffic
#: covers types*floors = 1024 (type, floor) combinations, so the pool
#: watches ~6% of them — the monitoring pattern keeps fan-out bounded,
#: leaving matching cost as the dominant term
TEMPLATES = 64
FLOORS = 64
MONITORS = 4


def measure(trackers, mediator_class=EventMediator):
    """One open-loop run; returns the report + opgraph stats + a log digest."""
    config = WorkloadConfig(
        entities=10_000, duration=20.0, publish_rate=100.0,
        trackers=trackers, tracker_templates=TEMPLATES,
        template_zipf_s=1.1, monitors=MONITORS, publishers=4, types=16,
        floors=FLOORS,
        churn_ops=25, query_ops=0, seed=1,
        rate_profile=(1.0, 2.5, 4.0, 2.5, 1.0))
    net = Network(latency_model=FixedLatency(1.0))
    net.ensure_host("wl-host-0")
    guids = GuidFactory(seed=5)
    mediator = mediator_class(guids.mint(), "wl-host-0", net,
                              range_name="wl")
    workload = OpenLoopWorkload(net, mediator, config, hosts=["wl-host-0"])
    workload.install()
    start = time.perf_counter()
    workload.run()
    wall = time.perf_counter() - start
    row = workload.report(wall)
    row["opgraph"] = mediator.opgraph_stats()
    # per-sink latency sequences fingerprint the full delivery log: runs
    # that deliver different events, orders or timings diverge here
    digest = hashlib.sha256()
    for sink in workload.sinks:
        digest.update(repr(sink.latencies).encode("utf-8"))
    row["delivery_digest"] = digest.hexdigest()
    return row


class TestReportOpgraphPerf:
    def test_report_lookalike_scale(self, report):
        baseline = {"schema": "sci.bench.opgraph/2", "lookalike": []}
        report("")
        report("PERF  operator-graph dispatch, look-alike subscriptions "
               f"({TEMPLATES}-template Zipf pool, open-loop diurnal "
               "Poisson, 20 sim-units @ 100 publishes/unit)")
        report(f"{'trackers':>9} | {'wall s':>7} {'pub/s':>8} {'del/s':>8} "
               f"{'reuse':>6} {'nodes':>6}")
        for trackers in SCALES:
            row = measure(trackers)
            stats = row["opgraph"]
            reuse, nodes = stats["reuse_ratio"], stats["nodes"]
            report(f"{trackers:>9} | {row['wall_s']:>7.2f} "
                   f"{row['published_per_s']:>8.0f} "
                   f"{row['delivered_per_s']:>8.0f} "
                   f"{reuse:>6.3f} {nodes:>6}")
            baseline["lookalike"].append({
                "trackers": trackers,
                "templates": TEMPLATES,
                "published": row["published"],
                "delivered": row["delivered"],
                "latency_p50": row["latency_p50"],
                "latency_p99": row["latency_p99"],
                "reuse_ratio": round(reuse, 4),
                "nodes": nodes,
                "delivery_digest": row["delivery_digest"][:16],
                "wall_s": round(row["wall_s"], 3),
                "published_per_s": round(row["published_per_s"], 1),
                "delivered_per_s": round(row["delivered_per_s"], 1),
            })
            assert reuse > MIN_REUSE, (
                f"node reuse {reuse:.3f} at {trackers} look-alike "
                f"subscriptions; the gate is > {MIN_REUSE}")
            assert nodes <= TEMPLATES + MONITORS, (
                f"{nodes} live nodes for a {TEMPLATES}-template pool plus "
                f"{MONITORS} monitors — look-alikes stopped sharing")
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
