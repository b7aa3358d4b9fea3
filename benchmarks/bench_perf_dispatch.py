"""PERF — hot-path dispatch and resolution as the tables grow.

Two hot paths, each swept over a scale range:

* **Publish fan-out** — a mediator holding N subscriptions with selective
  (type, subject) filters plus a small residual fraction of Or-filters.
  The shared filter table looks candidate filter nodes up in dict buckets,
  so a publish costs O(matching + residual), not O(N).
* **Query resolution** — a resolver over N source profiles spread across
  many offered types; each candidate step reads one type bucket from a
  profile index that is built once and then follows membership by delta.
  The *stable* rows resolve over a fixed population (their p95 at small
  resolve counts is the one index build); the *churned* rows put one
  arrival or departure between every two resolves and time only the
  resolves after the build — the tail a live range sees.

Publish scales run 100 -> 100k, resolve scales 100 -> 10k. Results land in
``results/bench_perf_dispatch.txt`` (human-readable) and
``results/BENCH_dispatch.json`` (machine baseline for future PRs' perf
trajectory). There is one engine, so nothing is raced: the gates are
structural — the index must serve hits, and a publish may visit at most
``MAX_SCAN_FRACTION`` of the filters a linear scan would (equivalence with
that scan is proven in ``tests/opgraph`` and ``tests/properties``), and
the profile index must be built exactly once, churn or no churn.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_perf_dispatch.py -q -s``
"""

import json
import pathlib
import time

from repro.core.ids import GuidFactory
from repro.core.types import TypeRegistry, TypeSpec
from repro.composition.resolver import QueryResolver
from repro.composition.templates import TemplateRegistry
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.events.filters import AndFilter, OrFilter, SubjectFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.net.transport import FixedLatency, Network

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_dispatch.json"

PUBLISH_SCALES = (100, 1_000, 10_000, 100_000)
RESOLVE_SCALES = (100, 1_000, 10_000)
#: resolves per churned row: enough that p95 has ten samples beyond it
CHURNED_RESOLVES = 200
#: fraction of subscriptions with non-analysable filters (stress residual)
RESIDUAL_FRACTION = 0.01
#: a publish may visit at most this share of the N filters a linear scan
#: would; broken filter analysis sends every root to the residual list and
#: the share to 1.0
MAX_SCAN_FRACTION = 0.25


# -- publish fan-out -----------------------------------------------------------

def build_mediator(n_subscriptions):
    """A mediator with N subscriptions: selective filters + tiny residual."""
    net = Network(latency_model=FixedLatency(0.5), seed=3)
    net.add_host("bench")
    guids = GuidFactory(seed=13)
    mediator = EventMediator(guids.mint(), "bench", net, "bench")
    sink = guids.mint()  # deliveries to an absent process are dropped on arrival
    n_subjects = 100
    n_types = max(10, n_subscriptions // n_subjects)
    residual_every = max(2, int(1 / RESIDUAL_FRACTION))
    for i in range(n_subscriptions):
        # distinct (type, subject) pairs: selective filters, ~1 match/event
        type_name = f"t{(i // n_subjects) % n_types}"
        subject = f"s{i % n_subjects}"
        if i % residual_every == 0:
            event_filter = OrFilter([TypeFilter(type_name),
                                     SubjectFilter(subject)])
        else:
            event_filter = AndFilter([TypeFilter(type_name),
                                      SubjectFilter(subject)])
        mediator.add_subscription(sink, event_filter, replay_retained=False)
    return net, mediator, n_types, n_subjects


def measure_publish(n_subscriptions, publishes):
    net, mediator, n_types, n_subjects = build_mediator(n_subscriptions)
    source = GuidFactory(seed=23).mint()
    combos = n_types * n_subjects
    events = []
    for i in range(publishes):
        combo = (i * 37) % combos  # stride over (type, subject) space
        events.append(ContextEvent(
            TypeSpec(f"t{combo // n_subjects}", "raw", f"s{combo % n_subjects}"),
            i, source, 0.0))
    start = time.perf_counter()
    delivered = 0
    for event in events:
        delivered += mediator.publish(event)
    elapsed = time.perf_counter() - start
    net.scheduler.run_until_idle()  # drain queued deliveries, untimed
    return {
        "publishes": publishes,
        "delivered": delivered,
        "eps": publishes / elapsed if elapsed else float("inf"),
        "stats": mediator.opgraph_stats(),
        "metrics": net.obs.metrics,
    }


# -- query resolution ----------------------------------------------------------

class _Population:
    """N single-output source profiles across many types, as a live feed
    that reports each arrival and departure to the resolver."""

    def __init__(self, n_profiles):
        self.registry = TypeRegistry()
        self.n_types = max(10, n_profiles // 50)
        for i in range(self.n_types):
            self.registry.define(f"sense-{i}")
        self._guids = GuidFactory(seed=31)
        self.profiles = [self._mint(i) for i in range(n_profiles)]

    def _mint(self, index):
        return Profile(self._guids.mint(), f"src-{index}", EntityClass.DEVICE,
                       outputs=[TypeSpec(f"sense-{index % self.n_types}",
                                         "raw", f"s{index}")])

    def wanted(self, index):
        return TypeSpec(f"sense-{index % self.n_types}", "raw", f"s{index}")

    def arrive(self, resolver, index):
        arrived = self._mint(index)
        self.profiles.append(arrived)
        resolver.note_profile_added(arrived)

    def depart(self, resolver, position):
        departed = self.profiles.pop(position)
        resolver.note_profile_removed(departed.entity_id.hex)

    def resolver(self):
        return QueryResolver(self.registry,
                             live_profiles=lambda: self.profiles,
                             templates=TemplateRegistry())


def build_resolver(n_profiles):
    """A resolver over a fixed population."""
    population = _Population(n_profiles)
    return population.resolver(), population.n_types


def _timed_resolve(resolver, wanted):
    start = time.perf_counter()
    resolver.resolve(wanted)
    return (time.perf_counter() - start) * 1000.0


def _latency_row(resolver, latencies, **extra):
    ordered = sorted(latencies)
    return dict(extra,
                resolves=len(ordered),
                p50_ms=ordered[len(ordered) // 2],
                p95_ms=ordered[min(len(ordered) - 1,
                                   int(len(ordered) * 0.95))],
                rebuilds=resolver.index_rebuilds)


def measure_resolve(n_profiles, resolves):
    population = _Population(n_profiles)
    resolver = population.resolver()
    return _latency_row(resolver, [
        _timed_resolve(resolver, population.wanted(i % n_profiles))
        for i in range(resolves)])


def measure_resolve_churned(n_profiles, resolves):
    """Resolve latency with one arrival or departure between resolves.

    The index build is timed on its own (``build_ms``, the first resolve);
    the percentiles are over the resolves that follow it. Departures come
    out of the upper half of the population, wanted subjects out of the
    lower half, so every resolve has its provider.
    """
    population = _Population(n_profiles)
    resolver = population.resolver()
    build_ms = _timed_resolve(resolver, population.wanted(0))
    latencies = []
    for i in range(resolves):
        if i % 2:
            population.depart(resolver, n_profiles // 2)
        else:
            population.arrive(resolver, n_profiles + i)
        latencies.append(_timed_resolve(
            resolver, population.wanted(i % (n_profiles // 2))))
    return _latency_row(resolver, latencies, build_ms=build_ms)


# -- the report ----------------------------------------------------------------

class TestReportDispatchPerf:
    def test_report_publish_fanout(self, report):
        baseline = _load_baseline()
        report("")
        report("PERF  publish fan-out through the operator graph "
               f"({int(RESIDUAL_FRACTION * 100)}% residual filters)")
        report(f"{'subs':>6} | {'ev/s':>9} | {'hits':>8} {'residual':>9} "
               f"{'scanned':>8}")
        for scale in PUBLISH_SCALES:
            publishes = max(50, min(2_000, 200_000 // scale))
            row = measure_publish(scale, publishes=publishes)
            assert row["delivered"] > 0
            hits = row["metrics"].counter("mediator.index.hits").total()
            residual = row["metrics"].counter(
                "mediator.index.residual_scans").total()
            scan_fraction = (hits + residual) / (publishes * scale)
            report(f"{scale:>6} | {row['eps']:>9.0f} | {hits:>8.0f} "
                   f"{residual:>9.0f} {scan_fraction:>8.4f}")
            baseline["publish"].append({
                "subscriptions": scale,
                "publishes": publishes,
                "eps": round(row["eps"], 1),
                "index_hits": hits,
                "residual_scans": residual,
                "scan_fraction": round(scan_fraction, 5),
            })
            assert hits > 0
            assert scan_fraction <= MAX_SCAN_FRACTION, (
                f"a publish visited {scan_fraction:.3f} of the filters at "
                f"{scale} subscriptions (gate <= {MAX_SCAN_FRACTION})")
        _save_baseline(baseline)

    def test_report_resolve_latency(self, report):
        baseline = _load_baseline()
        report("")
        report("PERF  resolve latency over the profile index")
        report(f"{'profiles':>9} | {'p50':>10} {'p95':>10} | {'rebuilds':>8}")
        for scale in RESOLVE_SCALES:
            resolves = max(10, min(200, 20_000 // scale))
            row = measure_resolve(scale, resolves=resolves)
            report(f"{scale:>9} | {row['p50_ms']:>8.3f}ms "
                   f"{row['p95_ms']:>8.3f}ms | {row['rebuilds']:>8}")
            baseline["resolve"].append({
                "profiles": scale,
                "resolves": resolves,
                "p50_ms": round(row["p50_ms"], 4),
                "p95_ms": round(row["p95_ms"], 4),
            })
            # a resolver builds its index exactly once
            assert row["rebuilds"] == 1
        report("")
        report("PERF  resolve latency under churn (one arrival or departure "
               "between resolves; percentiles exclude the build)")
        report(f"{'profiles':>9} | {'build':>10} | {'p50':>10} {'p95':>10} "
               f"| {'rebuilds':>8}")
        for scale in RESOLVE_SCALES:
            row = measure_resolve_churned(scale, resolves=CHURNED_RESOLVES)
            report(f"{scale:>9} | {row['build_ms']:>8.1f}ms | "
                   f"{row['p50_ms']:>8.3f}ms {row['p95_ms']:>8.3f}ms | "
                   f"{row['rebuilds']:>8}")
            baseline["resolve_churned"].append({
                "profiles": scale,
                "resolves": row["resolves"],
                "build_ms": round(row["build_ms"], 2),
                "p50_ms": round(row["p50_ms"], 4),
                "p95_ms": round(row["p95_ms"], 4),
                "rebuilds": row["rebuilds"],
            })
            # membership changes are deltas: the one build is the first
            assert row["rebuilds"] == 1, (
                f"{row['rebuilds']} index builds over {row['resolves']} "
                f"churned resolves at {scale} profiles (gate == 1)")
        _save_baseline(baseline)


SECTIONS = ("publish", "resolve", "resolve_churned")


def _load_baseline():
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH, encoding="utf-8") as handle:
            document = json.load(handle)
        # re-runs replace their own section, keeping the other's last values
        return {"schema": "sci.bench.dispatch/2",
                **{section: [] for section in SECTIONS},
                "previous": {k: document.get(k) for k in SECTIONS}}
    return {"schema": "sci.bench.dispatch/2",
            **{section: [] for section in SECTIONS}}


def _save_baseline(document):
    RESULTS_DIR.mkdir(exist_ok=True)
    merged = {"schema": document["schema"]}
    previous = document.pop("previous", {})
    for section in SECTIONS:
        merged[section] = document[section] or previous.get(section) or []
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- microbenchmarks (pytest-benchmark, optional) ------------------------------
# pytest is imported here, not at the top: scripts/smoke_perf.py imports the
# builders above, and must run where only the runtime is installed.

try:
    import pytest
except ImportError:
    pass
else:
    @pytest.mark.parametrize("scale", [1_000, 10_000])
    def test_bench_publish(benchmark, scale):
        net, mediator, n_types, n_subjects = build_mediator(scale)
        source = GuidFactory(seed=23).mint()
        event = ContextEvent(TypeSpec("t1", "raw", "s1"), 1, source, 0.0)
        benchmark(mediator.publish, event)
        net.scheduler.run_until_idle()
