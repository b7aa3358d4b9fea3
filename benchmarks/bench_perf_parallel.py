"""PERF — route throughput of the lane scheduler across partition counts.

A 1000-node overlay route workload replayed at 1, 2, 4 and 8 lanes. The
one-lane row — what a default deployment runs — is the baseline, measured
in the same run; every other row is reported as a ratio to it. Lanes run
one after another on one thread, so the ratio prices the horizon rounds,
it does not promise a speedup.

Every configuration must route the exact same number of steps — the cheap
in-benchmark determinism check; the real equivalence proof lives in
``tests/parallel/``. There is no throughput gate: a ratio against a number
recorded in a different run says nothing about this one.

Results land in ``results/bench_perf_parallel.txt`` and
``results/BENCH_parallel.json``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_perf_parallel.py -q -s``
"""

import json
import pathlib
import random
import time

from repro.core.ids import GUID
from repro.net.transport import FixedLatency, Network
from repro.overlay.scinet import SCINet

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_parallel.json"

NODES = 1000
ROUTES = 400
REPEATS = 2

#: (label, partitions); the first row is the same-run baseline
CONFIGS = [
    ("part-1", 1),
    ("part-2", 2),
    ("part-4", 4),
    ("part-8", 8),
]


def build_overlay(n, partitions=1, seed=3):
    net = Network(latency_model=FixedLatency(1.0), seed=seed,
                  partitions=partitions)
    sci = SCINet(net)
    for i in range(n):
        sci.create_node(f"h{i % 64}", range_name=f"r{i}")
    return net, sci


def measure_route(partitions, n=NODES, routes=ROUTES):
    """Best-of-``REPEATS`` route throughput for one configuration."""
    best = None
    for _ in range(REPEATS):
        net, sci = build_overlay(n, partitions=partitions)
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
        run = {
            "steps": sci.total_routed(),
            "steps_per_s": sci.total_routed() / elapsed if elapsed else 0.0,
            "delivered": net.stats.delivered,
        }
        if best is None or run["steps_per_s"] > best["steps_per_s"]:
            best = run
    return best


class TestReportParallelPerf:
    def test_report_route_throughput(self, report):
        baseline = {"schema": "sci.bench.parallel/2", "route_parallel": []}
        report("")
        report(f"PERF  lane-scheduler route throughput "
               f"({NODES} nodes, {ROUTES} routes, best of {REPEATS})")
        report(f"{'config':>15} | {'steps/s':>10} {'vs part-1':>10}")
        rows = {}
        for label, partitions in CONFIGS:
            rows[label] = measure_route(partitions)
        single = rows[CONFIGS[0][0]]
        steps = {row["steps"] for row in rows.values()}
        assert len(steps) == 1, (
            f"configurations disagreed on routed steps: {steps} — the "
            "substrate broke determinism; see tests/parallel/")
        delivered = {row["delivered"] for row in rows.values()}
        assert len(delivered) == 1, (
            f"configurations disagreed on deliveries: {delivered}")
        for label, partitions in CONFIGS:
            row = rows[label]
            vs_single = row["steps_per_s"] / single["steps_per_s"]
            report(f"{label:>15} | {row['steps_per_s']:>10.0f} "
                   f"{vs_single:>9.2f}x")
            baseline["route_parallel"].append({
                "config": label,
                "partitions": partitions,
                "nodes": NODES,
                "routes": ROUTES,
                "steps": row["steps"],
                "steps_per_s": round(row["steps_per_s"], 1),
                "ratio_vs_single_lane_same_run": round(vs_single, 3),
            })
        _save_baseline(baseline)


def _save_baseline(document):
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
