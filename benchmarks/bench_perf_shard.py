"""PERF — sharded Context Server internals under open-loop load at scale.

The :mod:`repro.apps.workload` generator drives a Poisson arrival stream
(100 publishes per sim-time unit for 300 units, Zipf-1.1 subject
popularity over the entity population) into one mediator + resolver pair,
with 20k exact ``(type, subject)`` trackers, a handful of routed type
monitors, and registration/lease + subscription churn and resolver
queries mixed in as control events. Each scale row grows the entity
population a decade — 10^4, 10^5, 10^6 — and scales the churn/query op
count with it (more entities, more lease expiries per unit time).

Configurations: ``classic`` is the single ``EventMediator`` and the K=1
provider index; ``shardK`` splits mediator and resolver into K
consistent-hash shards, one host each.
What sharding buys is algorithmic, not parallelism: exact-key
dispatch skips the router and fire-and-forget internal forwards carry no
acks. The provider index is kept by delta at every K (one index, K slices
of it), so registration churn no longer separates the configurations — the
"vs classic" column is reported, not gated.

Acceptance gates are structural, per configuration and scale:

* every configuration publishes AND delivers the exact same event counts —
  the cheap in-benchmark determinism/equivalence check; the entry-level
  proof lives in ``tests/shard/`` and ``tests/parallel/``;
* the provider index is built at most once per slice, plus once per slice
  for every *chain gap* — a feed-version bump nobody reported as a delta
  (this workload reports all of its churn, so the gate is ``rebuilds <=
  K``; the gap count is measured and stored with each row).

Results land in ``results/bench_perf_shard.txt`` and
``results/BENCH_shard.json``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_perf_shard.py -q -s``
"""

import json
import pathlib
import time

from repro.apps.workload import OpenLoopWorkload, ProviderFeed, WorkloadConfig
from repro.core.ids import GuidFactory
from repro.core.types import TypeRegistry
from repro.events.mediator import EventMediator
from repro.events.sharding import ShardedEventMediator
from repro.net.transport import FixedLatency, Network

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_shard.json"

#: (entities, churn_ops, query_ops) — ops scale with the population
SCALES = [
    (10_000, 50, 50),
    (100_000, 100, 100),
    (1_000_000, 200, 200),
]

#: (label, shards)
CONFIGS = [
    ("classic", 1),
    ("shard4", 4),
    ("shard8", 8),
]


def measure(entities, churn_ops, query_ops, shards,
            duration=300.0, publish_rate=100.0, trackers=20_000):
    """One full open-loop run; returns the workload report plus internals."""
    config = WorkloadConfig(entities=entities, duration=duration,
                            publish_rate=publish_rate, trackers=trackers,
                            monitors=4, publishers=4, churn_ops=churn_ops,
                            query_ops=query_ops, seed=1)
    net = Network(latency_model=FixedLatency(1.0))
    guids = GuidFactory(seed=5)
    hosts = [f"wl-host-{index}" for index in range(shards)]
    for host in hosts:
        net.ensure_host(host)
    feed = ProviderFeed(TypeRegistry(), config)
    resolver = feed.resolver(shards=shards, metrics=net.obs.metrics)
    if shards > 1:
        mediator = ShardedEventMediator(guids.mint(), hosts[0], net,
                                        range_name="wl", shards=shards,
                                        shard_hosts=hosts,
                                        guid_factory=guids)
    else:
        mediator = EventMediator(guids.mint(), hosts[0], net, range_name="wl")
    workload = OpenLoopWorkload(net, mediator, config, resolver=resolver,
                                feed=feed, hosts=hosts)
    workload.install()
    registered, reported = feed.registrations, resolver.index_deltas
    start = time.perf_counter()
    workload.run()
    wall = time.perf_counter() - start
    row = workload.report(wall)
    row["index_rebuilds"] = resolver.index_rebuilds
    #: feed-version bumps the resolver was not told about
    row["chain_gaps"] = ((feed.registrations - registered)
                         - (resolver.index_deltas - reported))
    return row


class TestReportShardPerf:
    def test_report_open_loop_scale(self, report):
        baseline = _load_baseline()
        report("")
        report("PERF  sharded Context Server, open-loop workload "
               "(300 sim-units @ 100 publishes/unit, 20k trackers, "
               "Zipf-1.1 subjects)")
        report(f"{'entities':>9} {'config':>13} | {'wall s':>7} "
               f"{'pub/s':>7} {'del/s':>7} {'p50':>4} {'p99':>4} "
               f"{'rebuilds':>8} {'vs classic':>10}")
        for entities, churn_ops, query_ops in SCALES:
            rows = {}
            for label, shards in CONFIGS:
                rows[label] = measure(entities, churn_ops, query_ops, shards)
            classic = rows["classic"]
            published = {row["published"] for row in rows.values()}
            assert len(published) == 1, (
                f"configurations disagreed on published counts at "
                f"{entities} entities: {published} — the workload broke "
                "determinism")
            delivered = {row["delivered"] for row in rows.values()}
            assert len(delivered) == 1, (
                f"configurations disagreed on delivered counts at "
                f"{entities} entities: {delivered} — sharding changed "
                "observable delivery; see tests/shard/")
            for label, shards in CONFIGS:
                row = rows[label]
                speedup = classic["wall_s"] / row["wall_s"]
                allowed = shards * (1 + row["chain_gaps"])
                assert row["index_rebuilds"] <= allowed, (
                    f"{label} at {entities} entities built its provider "
                    f"index {row['index_rebuilds']} times; {shards} "
                    f"slice(s) and {row['chain_gaps']} chain gap(s) allow "
                    f"{allowed} — churn is falling back to rebuilds")
                report(f"{entities:>9} {label:>13} | {row['wall_s']:>7.2f} "
                       f"{row['published_per_s']:>7.0f} "
                       f"{row['delivered_per_s']:>7.0f} "
                       f"{row['latency_p50']:>4.1f} "
                       f"{row['latency_p99']:>4.1f} "
                       f"{row['index_rebuilds']:>8} {speedup:>9.2f}x")
                baseline["open_loop"].append({
                    "config": label,
                    "shards": shards,
                    "entities": entities,
                    "churn_ops": churn_ops,
                    "query_ops": query_ops,
                    "published": row["published"],
                    "delivered": row["delivered"],
                    "queries": row["queries"],
                    "latency_p50": row["latency_p50"],
                    "latency_p99": row["latency_p99"],
                    "index_rebuilds": row["index_rebuilds"],
                    "chain_gaps": row["chain_gaps"],
                    "wall_s": round(row["wall_s"], 3),
                    "published_per_s": round(row["published_per_s"], 1),
                    "delivered_per_s": round(row["delivered_per_s"], 1),
                    "speedup_vs_classic_same_run": round(speedup, 3),
                })
        report("  gates: published/delivered counts equal across "
               "configurations at every scale; every provider index built "
               "at most once per slice (no chain gaps reported)")
        baseline["gate"] = {
            "equal_counts_across_configs": True,
            "rebuilds_at_most_one_per_slice_plus_gaps": True,
            "passed": True,
        }
        _save_baseline(baseline)


def _load_baseline():
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH, encoding="utf-8") as handle:
            document = json.load(handle)
        return {"schema": "sci.bench.shard/1",
                "open_loop": [], "gate": None,
                "previous": {"open_loop": document.get("open_loop"),
                             "gate": document.get("gate")}}
    return {"schema": "sci.bench.shard/1", "open_loop": [], "gate": None}


def _save_baseline(document):
    RESULTS_DIR.mkdir(exist_ok=True)
    merged = {"schema": document["schema"]}
    previous = document.pop("previous", {})
    merged["open_loop"] = (document["open_loop"]
                           or previous.get("open_loop") or [])
    merged["gate"] = document["gate"] or previous.get("gate")
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
