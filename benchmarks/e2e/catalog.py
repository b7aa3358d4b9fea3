"""The benchmark's declared metrics: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root is written from these tables
(``python benchmarks/e2e/catalog.py`` prints it; a self-test keeps the two
in step), and ``run.py`` reports exactly the metrics declared here.

Clock ``H`` is the host clock: wall seconds of this Python process, what
optimisations move. Clock ``S`` is simulated time or a count: a pure
function of the seed, identical on every repeat of one seed; a change that
moves an ``S`` metric changed behaviour, whatever it did to speed.

``bound`` is the share of the parent's median by which a metric may worsen
before a change counts as a regression. The driver measures each bound's
metric across runs with *different* seeds, so ``S`` metrics carry a small
bound for seed-to-seed variation; ``compare.py`` still demands that they
match exactly when both result files used one seed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

RUN_SECONDS = 20

WORKLOADS: List[Tuple[str, str]] = [
    ("campus_steady",
     "steady full path: publish, transport, mediator, reliable delivery and "
     "ack, reassembler, app, over heartbeats and ledger appends; loads net, "
     "obs, ledger, entities and bypasses composition and overlay"),
    ("lookalike_churn",
     "look-alike And(type, floor==k) subscriptions plus residual filters "
     "with subscribe/unsubscribe rotations between publishes; loads events "
     "dispatch and its write side, bypasses composition and overlay"),
    ("query_storm",
     "registration storm, then mixed closed-loop queries with stop, crash "
     "and start churn between batches; loads server, composition and query "
     "parsing and selection, dispatch does little"),
    ("range_federation",
     "one range per room: cross-range forwarded queries, walkers crossing "
     "range boundaries, ranges leaving and failing; the only load on overlay "
     "and mobility, events fan-out is negligible"),
]

#: (name, unit, better, clock, bound). The H bounds are what this machine
#: supports: across ten runs with ten seeds the interquartile spread of a
#: calibrated H metric is 3-9 % of its median (README, Baseline), and the
#: driver wants a bound of three times the spread, capped at a quarter.
END_TO_END: List[Tuple[str, str, str, str, float]] = [
    ("setup_s", "s", "lower", "H", 0.25),
    ("events_per_s", "1/s", "higher", "H", 0.20),
    ("deliveries_per_s", "1/s", "higher", "H", 0.20),
    ("queries_per_s", "1/s", "higher", "H", 0.20),
    ("query_batch_ms_p50", "ms", "lower", "H", 0.25),
    ("query_batch_ms_p90", "ms", "lower", "H", 0.25),
    ("registrations_per_s", "1/s", "higher", "H", 0.25),
    ("audit_s", "s", "lower", "H", 0.25),
    ("peak_rss_mb", "MB", "lower", "H", 0.05),
    ("sim_delivery_p50", "sim", "lower", "S", 0.06),
    ("sim_delivery_p99", "sim", "lower", "S", 0.06),
    ("sim_messages_per_op", "count", "lower", "S", 0.10),
]

_LAYER_BASICS = [("self_s", "s", "lower"), ("calls", "count", "lower")]

#: layer -> [(metric, unit, better)] beyond self_s and calls
_LAYER_EXTRAS: Dict[str, List[Tuple[str, str, str]]] = {
    "net": [("sched_events", "count", "lower"),
            ("sched_us_per_event", "us", "lower"),
            ("messages_sent", "count", "lower"),
            ("messages_delivered", "count", "lower"),
            ("messages_dropped", "count", "lower"),
            ("rpc_retries", "count", "lower"),
            ("dedup_hits", "count", "lower"),
            ("pending_peak", "count", "lower")],
    "obs": [("counter_incs", "count", "lower"),
            ("histogram_observes", "count", "lower"),
            ("spans_started", "count", "lower"),
            ("share_of_run", "ratio", "lower")],
    "events": [("publish_calls", "count", "lower"),
               ("subscribe_calls", "count", "lower"),
               ("unsubscribe_calls", "count", "lower"),
               ("index_hits", "count", "lower"),
               ("residual_scans", "count", "lower"),
               ("match_ratio", "ratio", "higher"),
               ("retransmits", "count", "lower"),
               ("resync_replays", "count", "lower"),
               ("retained", "count", "lower")],
    "query": [("parse_calls", "count", "lower"),
              ("which_evals", "count", "lower"),
              ("opgraph_nodes", "count", "lower"),
              ("opgraph_evals", "count", "lower"),
              ("opgraph_reuse_ratio", "ratio", "higher")],
    "composition": [("resolve_calls", "count", "lower"),
                    ("resolve_ms_p50", "ms", "lower"),
                    ("resolve_ms_p95", "ms", "lower"),
                    ("index_rebuilds", "count", "lower"),
                    ("index_hits", "count", "higher"),
                    ("backtracks", "count", "lower"),
                    ("configs_built", "count", "lower"),
                    ("configs_reused", "count", "higher"),
                    ("repairs", "count", "lower")],
    "server": [("queries_received", "count", "lower"),
               ("queries_executed", "count", "higher"),
               ("queries_forwarded", "count", "lower"),
               ("queries_parked", "count", "lower"),
               ("registrations", "count", "lower"),
               ("lease_renewals", "count", "lower"),
               ("lease_expiries", "count", "lower")],
    "ledger": [("appends", "count", "lower"),
               ("append_us_mean", "us", "lower"),
               ("entries", "count", "lower"),
               ("verify_s", "s", "lower"),
               ("replay_s", "s", "lower")],
    "overlay": [("joins", "count", "lower"),
                ("bcast_sent", "count", "lower"),
                ("bcast_dup_suppressed", "count", "lower"),
                ("route_hops_mean", "count", "lower"),
                ("directory_entries", "count", "lower"),
                ("range_joins_per_s", "1/s", "higher")],
    "entities": [("events_consumed", "count", "higher"),
                 ("acks_sent", "count", "lower"),
                 ("reassembler_holes", "count", "lower")],
    "location": [("updates", "count", "lower"),
                 ("handoffs", "count", "lower")],
}

#: (name, unit, better) for every per-layer metric, harness rows last
PER_LAYER: List[Tuple[str, str, str]] = [
    (f"{layer}.{metric}", unit, better)
    for layer, extras in _LAYER_EXTRAS.items()
    for metric, unit, better in _LAYER_BASICS + extras
] + [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.gc_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.root_s", "s", "lower"),
]


def benchmark_json() -> Dict[str, Any]:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, _clock, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
