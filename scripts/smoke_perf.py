#!/usr/bin/env python
"""Perf smoke gate: the hot paths must actually hit their indexes.

Runs the dispatch benchmark's workloads at a small scale and asserts the
structural properties a refactor could silently regress:

* counting takes one path: on a seeded default ``SCI()`` run at most
  ``MAX_INCS_PER_DELIVERY`` validated ``Counter.inc`` calls per delivered
  message (hot sites update series bound once);
* the dedup window holds exchanges only: after that run the processes'
  ``_seen_messages`` hold one entry per request/reply arrival, a pinned
  ``EXCHANGE_ARRIVALS``, and none for the one-way arrivals;
* the mediator's exact-match buckets serve candidates (``mediator.index.hits``
  non-zero) and the residual-scan fraction stays below a threshold — a change
  that de-indexes selective filters (e.g. by breaking filter analysis) fails
  here long before production-scale latencies would reveal it;
* the resolver's profile index is built once across every resolve and
  serves every candidate lookup (``resolver.index.*`` via its counters);
* a Context Server's query path scans no population: over registration
  churn the provider index is built exactly once, each reported arrival,
  departure or re-registration counts one delta, and no lookup files more
  than the one profile each arrival or re-registration brings;
  profile/advertisement queries answered from the Registrar's What index
  are digest-equal to the test-side linear scan
  (``tests/server/reference_scan.py``); a subject-bound subscription reads
  no more providers than its subject's and the unbound sub-buckets hold,
  and an equal second subscription is served by graph reuse;
* a registration storm delivers each ``component-up`` to the Range Services
  listening on the announcer's machine and to nobody else: four deliveries
  per Figure-5 handshake however crowded the machine, and no announce
  unheard — a change that silently re-floods the machine fails here;
* lease renewal is one-way: ``k`` machines of ``m`` members send exactly
  ``k * floor(T / (lease/3))`` ``heartbeat`` messages in ``T`` sim-units,
  nothing answers them (no ``heartbeat-ack``), and every member stays
  registered;
* the registrar's lease book evicts every unrenewed lease at
  ``lease + lease/2`` with one timer, and holds none once it is empty (no
  periodic sweep to reintroduce);
* the overlay disseminates announcements over the distribution tree
  (exactly N-1 ``o-bcast`` messages per full announce, zero duplicates)
  and the routing tables' memoised known-node views serve reads from cache;
* the scheduler's canonical key order still leaves the bit-identical
  canonical event log the single-heap reference does — what
  ``tests/parallel`` proves entry for entry;
* the mediator delivers entry-identical logs to the test-side linear
  reference scan (``tests/events/reference_scan.py``), one ``event``
  message carries every look-alike subscription of a publish's sink, and
  look-alike subscriptions actually share nodes (reuse ratio gated) — a change that silently broke
  canonicalisation would instantiate one node per subscription and fail
  here at smoke scale; at ``OPGRAPH_SCALE_TRACKERS`` look-alikes the live
  node count stays at the template pool plus the monitors;
* each distinct query clause text is parsed once: with the clause memo
  (``repro.core.memo``) emptied, a seeded stream of queries built from text
  clauses and sent to a Context Server misses exactly once per distinct
  text of each clause and hits on every other parse (parses counted from
  the stream: one per builder call, one per clause per arrival);
* each arrival is decoded once: with the GUID and spec memos emptied, a
  seeded deployment run misses the GUID memo once per distinct hex text and
  the spec memo once per distinct spec key, hits on every other decode,
  and calls each arrival's compiled wire row exactly once (arrivals
  counted by kind from an event log); the totals equal pinned values;
* well-formed traffic never trips the wire table: ``net.messages.malformed``
  totals 0 on every seeded run here;
* the filter table's work counts (``mediator.opgraph.evals``,
  ``mediator.index.hits``, ``mediator.index.residual_scans``) on the
  seeded look-alike run and the equivalence scenario equal pinned values:
  they are exact functions of the seed, so a change that evaluates one
  more candidate, or files one filter in a different bucket, fails here.

Exits non-zero on any failure, so CI can gate on it. Usage::

    PYTHONPATH=src python scripts/smoke_perf.py
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.bench_perf_dispatch import (  # noqa: E402
    build_resolver,
    measure_publish,
)
from repro.core.ids import GuidFactory  # noqa: E402
from repro.core.types import TypeSpec  # noqa: E402
from repro.events.mediator import EventMediator  # noqa: E402
from repro.net.transport import FixedLatency, Network  # noqa: E402
from repro.server.registrar import Registrar  # noqa: E402

SCALE = 500
PUBLISHES = 200
#: dispatch may scan at most this fraction of the candidates a linear
#: scan would visit (publishes x subscriptions). If filter analysis
#: silently breaks, every filter root lands in the residual list and the
#: fraction goes to 1.0 — far above this gate.
MAX_SCAN_FRACTION = 0.25
#: share of subscriptions allowed to fall to the residual list when the
#: workload's filters are 99% exact-match conjunctions
MAX_RESIDUAL_SUBSCRIPTIONS = 0.05
OVERLAY_NODES = 64
#: the look-alike pool: ``And(type, floor == k)`` templates over this many
#: event types and floors, plus type-level monitors beside them
OPGRAPH_TEMPLATES = 64
OPGRAPH_TYPES = 16
OPGRAPH_FLOORS = 64
OPGRAPH_MONITORS = 4
#: direct publishes of the look-alike rows, each a random (type, floor)
OPGRAPH_PUBLISHES = 1_000
#: look-alike trackers for the filter-table smoke run; with a 64-template
#: pool nearly every attach must be served by an existing node
OPGRAPH_TRACKERS = 2_000
MIN_OPGRAPH_REUSE = 0.9
#: trackers for the same workload's log comparison against the linear
#: reference scan, which pays publishes x trackers filter evaluations
SCAN_TRACKERS = 250
#: look-alikes attached (no publishes) for the node-count scale row
OPGRAPH_SCALE_TRACKERS = 20_000
#: the filter table's work counts, exact functions of the seed: the
#: look-alike run at ``SCAN_TRACKERS`` (every filter bucketed, so nothing
#: is scanned from the residual list) and the equivalence scenario of
#: ``tests/opgraph/scenarios.py`` (residual filters and retained replay)
WORK_COUNTS = ("mediator.opgraph.evals", "mediator.index.hits",
               "mediator.index.residual_scans")
LOOKALIKE_WORK = {"mediator.opgraph.evals": 3981, "mediator.index.hits": 3981,
                  "mediator.index.residual_scans": 0}
EQUIVALENCE_WORK = {"mediator.opgraph.evals": 367, "mediator.index.hits": 195,
                    "mediator.index.residual_scans": 182}
#: routing-table memo reads served per rebuild, summed over all nodes
MIN_CACHE_HIT_RATIO = 2
#: population and churn steps of the Context Server query-path row
QUERY_PATH_PROFILES = 2_000
QUERY_PATH_CHURN = 50
#: location badges in the same range, each bound to its wearer; one in
#: QUERY_PATH_UNBOUND_EVERY is an unbound tracker instead
QUERY_PATH_BADGES = 300
QUERY_PATH_UNBOUND_EVERY = 50
#: machines of the registration storm's range, and components started on each
STORM_MACHINES = 4
STORM_PER_MACHINE = 24
#: machines and members of the renewal-traffic row, their lease and the
#: window it counts over (a multiple of ``lease/3``, starting between ticks)
RENEWAL_MACHINES = 3
RENEWAL_PER_MACHINE = 8
RENEWAL_LEASE = 9.0
RENEWAL_SECONDS = 30.0
#: the seed of the decode-memo run, and what it decodes: arrivals (each
#: one compiled-row call), hex texts and spec keys handed to the memos, and
#: the distinct ones among them (each one memo miss). Exact functions of the
#: seed: a change that decodes one more id or spec fails here.
DECODE_SEED = 31
DECODE_WORK = {"arrivals": 267, "texts": 157, "distinct texts": 14,
               "keys": 100, "distinct keys": 8}
#: queries in the seeded clause-text stream, and its clause pools; every
#: text is canonical (``str(parse(text)) == text``)
CLAUSE_QUERIES = 300
CLAUSE_WHERE = ("anywhere", "within(room:L10)", "within(room:L10.01)",
                "room:L10.03", "near(room:L10.01, 5.0)")
CLAUSE_WHEN = ("now", "after(0.25)", "now until(1000000.5)")
CLAUSE_WHICH = ("any", "reachable; available", "no-queue; min-queue",
                "quality(rating>=0.5); best-quality(rating)")
CLAUSE_TYPES = ("printer", "device", "sensor", "door-sensor")
CLAUSE_NAMES = tuple(f"P{n}" for n in range(1, 9))
#: validated ``Counter.inc`` calls allowed per delivered message on the
#: default deployment: hot sites update series bound once, so only rare
#: labelled paths (request retries, unheard announces) are left
MAX_INCS_PER_DELIVERY = 0.25
#: request/reply arrivals on that run (no duplicates), each one dedup
#: window entry: an exact function of the default seed
EXCHANGE_ARRIVALS = 28


def work_counts(metrics):
    """Totals of the filter table's ``WORK_COUNTS`` counters."""
    return {name: metrics.counter(name).total() for name in WORK_COUNTS}


def malformed(metrics):
    """Refused arrivals (``net.messages.malformed``) of one run."""
    return metrics.get("net.messages.malformed").total()


def check(condition, label):
    status = "ok" if condition else "FAIL"
    print(f"smoke-perf: {status} — {label}")
    return bool(condition)


def query_path_under_churn(profiles=QUERY_PATH_PROFILES,
                           churn=QUERY_PATH_CHURN, badges=QUERY_PATH_BADGES):
    """One range, ``profiles`` registrations, ``churn`` membership changes.

    Every change is followed by a resolve and by a profile and an
    advertisement query through ``execute_query``; the answers a client
    receives are digested next to what the reference scan selects. Then
    two equal subscriptions for one badge wearer's location run through
    ``execute_query``; the provider entries the first one's resolve reads
    are counted at the index.
    """
    from hashlib import blake2b
    from repro.core.types import standard_registry
    from repro.entities.advertisement import Advertisement
    from repro.entities.profile import EntityClass, Profile
    from repro.location.building import livingstone_tower
    from repro.net.transport import FunctionProcess
    from repro.query.model import QueryBuilder
    from repro.server.context_server import ContextServer
    from repro.server.range import RangeDefinition
    from repro.server.registrar import RegistrationRecord
    from tests.server.reference_scan import scan_matching

    net = Network(latency_model=FixedLatency(0.5), seed=13)
    net.add_host("h")
    guids = GuidFactory(seed=43)
    server = ContextServer(
        guids.mint(), "h", net,
        definition=RangeDefinition("smoke", places=["livingstone"],
                                   hosts=["h"]),
        building=livingstone_tower(), registry=standard_registry(),
        guid_factory=guids)
    registrar = server.registrar
    answers = []
    client = FunctionProcess(guids.mint(), "h", net, answers.append)

    def record(guid, index, device):
        printer = index % 4 == 0
        return RegistrationRecord(
            profile=Profile(
                guid, f"unit-{index % (profiles // 2)}", EntityClass.DEVICE,
                outputs=[TypeSpec("printer-status" if printer
                                  else "temperature", "record")],
                attributes={"device": device} if printer else {}),
            kind="ce",
            advertisements=([Advertisement("print-service", ["print"])]
                            if printer else []))

    members = []
    for index in range(profiles):
        members.append(registrar.register_record(
            record(guids.mint(), index, "printer")))
    for index in range(badges):
        unbound = index % QUERY_PATH_UNBOUND_EVERY == 0
        registrar.register_record(RegistrationRecord(
            profile=Profile(
                guids.mint(), f"badge-{index}", EntityClass.DEVICE,
                outputs=[TypeSpec("location", "geometric") if unbound
                         else TypeSpec("location", "symbolic",
                                       f"person-{index}")]),
            kind="ce"))
    wanted = TypeSpec("printer-status", "record")
    server.resolver.resolve(wanted)
    # every profile filed after the build, by a delta or a lookup
    filings = []
    index = server.resolver._provider_index
    add_profile = index.add_profile

    def counted_add(profile, *args):
        filings.append(profile)
        add_profile(profile, *args)

    index.add_profile = counted_add
    queries = [QueryBuilder("smoke").profiles_of_type("printer")
               .with_id("smoke:1").build(),
               QueryBuilder("smoke").profile_of("unit-8")
               .with_id("smoke:2").build(),
               QueryBuilder("smoke").advertisement("print")
               .with_id("smoke:3").build()]
    indexed, scanned = blake2b(digest_size=16), blake2b(digest_size=16)
    answered = brought = 0
    for step in range(churn):
        brought += step % 3 != 1  # an arrival or a re-registration
        if step % 3 == 0:
            members.append(registrar.register_record(
                record(guids.mint(), 4 * step, "printer")))
        elif step % 3 == 1:
            registrar.remove(members.pop(8 * step).entity_hex, "smoke",
                             notify_entity=False)
        else:  # an existing printer registers again as a plotter
            old = members[8 * step]
            members[8 * step] = registrar.register_record(
                record(old.profile.entity_id, 8 * step, "plotter"))
        server.resolver.resolve(wanted)
        for query in queries:
            del answers[:]
            server.execute_query(query, client.guid.hex)
            net.scheduler.run_for(1)
            result = answers[-1].payload
            got = ([item["entity_id"] for item in result["profiles"]]
                   if "profiles" in result else
                   [item["entity"] for item in result["candidates"]])
            expected = [member.entity_hex
                        for member in scan_matching(registrar, query.what)
                        if "profiles" in result or member.advertisements]
            indexed.update(repr(got).encode())
            scanned.update(repr(expected).encode())
            answered += len(got)

    index.add_profile = add_profile
    served = []
    providers = index.providers

    def counted(wanted):
        entries = providers(wanted)
        served.append(len(entries))
        return entries

    index.providers = counted
    subject = "person-7"
    offers = [spec for member in registrar.records()
              for spec in member.profile.outputs
              if server.registry.is_subtype(spec.type_name, "location")]
    configurations = server.configurations
    reuse_before = configurations.reuse_hits
    for number in (4, 5):
        server.execute_query(QueryBuilder("smoke").subscribe(
            "location", "symbolic", subject).with_id(f"smoke:{number}")
            .build(), client.guid.hex)
    index.providers = providers
    return {"rebuilds": server.resolver.index_rebuilds,
            "deltas": server.resolver.index_deltas,
            "reported": profiles + badges + churn,
            "filed": len(filings),
            "brought": brought,
            "answered": answered,
            "indexed_digest": indexed.hexdigest(),
            "scanned_digest": scanned.hexdigest(),
            "bound_read": served[0] if served else None,
            "bound_held": sum(1 for spec in offers
                              if spec.subject in (subject, None)),
            "location_offers": len(offers),
            "reuse_hits": configurations.reuse_hits - reuse_before,
            "builds": configurations.builds}


def registration_storm(machines=STORM_MACHINES, per_machine=STORM_PER_MACHINE):
    """One range over ``machines`` machines; ``per_machine`` components
    start on each, a machine at a time, so every later announce finds its
    machine more crowded. Counts what was delivered, by kind."""
    from collections import Counter
    from repro.core.types import standard_registry
    from repro.entities.entity import ContextEntity
    from repro.entities.profile import Profile
    from repro.location.building import livingstone_tower
    from repro.server.context_server import ContextServer
    from repro.server.range import RangeDefinition
    from tests.net.eventlog import attach

    net = Network(latency_model=FixedLatency(0.5), seed=17)
    log = attach(net)
    hosts = [f"storm-{index}" for index in range(machines)]
    for host in hosts:
        net.add_host(host)
    guids = GuidFactory(seed=47)
    # a lease no renewal falls inside: handshake traffic only
    server = ContextServer(
        guids.mint(), hosts[0], net,
        definition=RangeDefinition("storm", places=["livingstone"],
                                   hosts=hosts),
        building=livingstone_tower(), registry=standard_registry(),
        guid_factory=guids, lease_duration=1e9)
    listening = {host: int(service.enabled)
                 for host, service in server.range_services.items()}
    components, expected_heard = [], 0
    for host in hosts:
        for index in range(per_machine):
            component = ContextEntity(
                Profile(guids.mint(), f"ce-{index}@{host}",
                        outputs=[TypeSpec("temperature", "celsius")]),
                host, net)
            component.start()
            components.append(component)
            expected_heard += listening[host]
        net.scheduler.run_for(5)
    delivered = Counter(entry[3] for entry in log.entries()
                        if entry[2] == "deliver")
    return {"registered": sum(c.registered for c in components),
            "announces": len(components),
            "expected_heard": expected_heard,
            "delivered": delivered,
            "delivered_total": net.stats.delivered,
            "unheard": net.obs.metrics.get("net.messages.unheard").total(),
            "malformed": malformed(net.obs.metrics)}


def renewal_traffic(machines=RENEWAL_MACHINES, per_machine=RENEWAL_PER_MACHINE,
                    lease=RENEWAL_LEASE, seconds=RENEWAL_SECONDS):
    """One range over ``machines`` machines with ``per_machine`` components
    on each; once every lease group has formed, count the renewal traffic
    of ``seconds`` sim-units, by kind."""
    from repro.core.types import standard_registry
    from repro.entities.entity import ContextEntity
    from repro.entities.profile import Profile
    from repro.location.building import livingstone_tower
    from repro.server.context_server import ContextServer
    from repro.server.range import RangeDefinition

    net = Network(latency_model=FixedLatency(0.5), seed=19)
    hosts = [f"lease-{index}" for index in range(machines)]
    for host in hosts:
        net.add_host(host)
    guids = GuidFactory(seed=53)
    server = ContextServer(
        guids.mint(), hosts[0], net,
        definition=RangeDefinition("lease", places=["livingstone"],
                                   hosts=hosts),
        building=livingstone_tower(), registry=standard_registry(),
        guid_factory=guids, lease_duration=lease)
    components = []
    for host in hosts:
        for index in range(per_machine):
            component = ContextEntity(
                Profile(guids.mint(), f"ce-{index}@{host}"), host, net)
            component.start()
            components.append(component)
    # the handshakes end at 2.0 and the ticks follow every lease/3 from
    # there, so the window starts between two ticks
    net.scheduler.run_for(lease / 3 + 1.0)
    before = net.stats.by_kind
    net.scheduler.run_for(seconds)
    after = net.stats.by_kind
    return {"heartbeat": after["heartbeat"] - before["heartbeat"],
            "heartbeat-ack": after["heartbeat-ack"],
            "expected": machines * int(seconds // (lease / 3)),
            "members": len(components),
            "registered": sum(c.registered
                              and server.registrar.registered(c.guid.hex)
                              for c in components),
            "malformed": malformed(net.obs.metrics)}


def lookalike_dispatch(trackers, mediator_class=EventMediator,
                       publishes=OPGRAPH_PUBLISHES, seed=1):
    """Look-alike trackers over one mediator, driven by direct publishes.

    Each tracker is one of ``OPGRAPH_TEMPLATES`` seeded ``And(type,
    floor == k)`` shapes; ``OPGRAPH_MONITORS`` type-level monitors ride
    beside them. Subscriptions deliver round-robin to four
    ``FunctionProcess`` sinks, each logging ``(subscription position,
    event value)`` in arrival order for every pair of an ``event``'s
    ``subs`` and acking those pairs with one ``event-ack``, as a
    subscriber does, so the mediator retransmits nothing.
    ``publishes=0`` only attaches.
    """
    from repro.events.event import ContextEvent
    from repro.events.filters import AndFilter, AttributeFilter, TypeFilter
    from repro.net.transport import FunctionProcess

    rng = random.Random(seed)
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    net.add_host("og")
    guids = GuidFactory(seed=5)
    mediator = mediator_class(guids.mint(), "og", net, range_name="og")
    position = {}  # sub_id -> its place in subscription order
    logs = [[] for _ in range(4)]

    def sink(log):
        def handle(message):
            subs = message.payload["subs"]
            log.extend((position[sub_id], message.payload["event"]["value"])
                       for sub_id, _ in subs)
            process.send(message.sender, "event-ack", {"acks": subs})
        process = FunctionProcess(guids.mint(), "og", net, handle)
        return process

    sinks = [sink(log) for log in logs]
    combos = rng.sample(range(OPGRAPH_TYPES * OPGRAPH_FLOORS),
                        OPGRAPH_TEMPLATES)
    filters = [AndFilter([TypeFilter(f"og-type-{combo % OPGRAPH_TYPES}"),
                          AttributeFilter("floor", "==",
                                          combo // OPGRAPH_TYPES)])
               for combo in combos]
    filters += [TypeFilter(f"og-type-{index}")
                for index in range(OPGRAPH_MONITORS)]
    for index in range(trackers + OPGRAPH_MONITORS):
        chosen = (rng.choice(filters[:OPGRAPH_TEMPLATES]) if index < trackers
                  else filters[OPGRAPH_TEMPLATES + index - trackers])
        subscription = mediator.add_subscription(
            sinks[index % len(sinks)].guid, chosen, replay_retained=False)
        position[subscription.sub_id] = index
    source = guids.mint()
    for n in range(publishes):  # each event's value tells it apart
        type_index = rng.randrange(OPGRAPH_TYPES)
        mediator.publish(ContextEvent(
            TypeSpec(f"og-type-{type_index}", "raw", f"e{n}"), n, source,
            net.scheduler.now, {"floor": rng.randrange(OPGRAPH_FLOORS)}))
    net.run_until_idle()
    return {"logs": logs, "delivered": sum(len(log) for log in logs),
            "pairs": sum(len({value for _, value in log}) for log in logs),
            "event_messages": net.stats.by_kind["event"],
            "opgraph": mediator.opgraph_stats(),
            "work": work_counts(net.obs.metrics),
            "malformed": malformed(net.obs.metrics)}


def counting_path():
    """The quickstart's seeded default ``SCI()`` run with every validated
    ``Counter.inc`` call counted: hot sites must record through series they
    bound once. An attached event log counts the arrivals by kind, split
    into request/reply exchanges (the kinds the dedup window holds) and
    one-way verbs, beside the windows' summed sizes at the end."""
    from repro import SCI
    from repro.net.wire import VERBS
    from repro.obs.metrics import Counter
    from tests.net.eventlog import attach

    calls = [0]
    validated = Counter.inc

    def counted(self, *args, **labels):
        calls[0] += 1
        return validated(self, *args, **labels)

    Counter.inc = counted
    try:
        sci = SCI()
        log = attach(sci.network)
        sci.create_range("livingstone", places=["livingstone"],
                         hosts=["lab-pc"])
        sci.add_door_sensors("livingstone")
        sci.add_person("bob", room="corridor")
        app = sci.create_application("whereIsBob", host="lab-pc")
        sci.run(5)
        app.submit_query(sci.query("bob").subscribe(
            "location", "topological", subject="bob").build())
        sci.run(5)
        for room in ("L10.01", "L10.03"):
            sci.walk("bob", room)
            sci.run(40)
    finally:
        Counter.inc = validated
    arrivals = {"exchange": 0, "one-way": 0}
    for entry in log.entries():
        if entry[2] == "deliver":
            row = VERBS.get(entry[3])
            arrivals["exchange" if row is None or row.reply or row.flag
                     else "one-way"] += 1
    metrics = sci.network.obs.metrics
    return {"incs": calls[0], "delivered": sci.network.stats.delivered,
            "window": sum(len(process._seen_messages)
                          for process in sci.network._processes.values()),
            "arrivals": arrivals,
            "suppressed": metrics.get("net.dedup.suppressed").total(),
            "malformed": malformed(metrics)}


def clause_text_stream(queries=CLAUSE_QUERIES):
    """A seeded stream of queries whose Where/When/Which are given as text,
    submitted to one Context Server with the clause memo emptied first.
    Each clause is parsed once per builder call that takes its text and
    once per arrival at the server (``Query.from_wire``)."""
    from repro import SCI, SCIConfig
    from repro.query import CLAUSE_PARSERS

    sci = SCI(config=SCIConfig(seed=29))
    sci.create_range("r", places=["L10"], hosts=["lab-pc"])
    sci.add_door_sensors("r")
    sci.add_printers("r", {"P1": "L10.03", "P2": "L10.01"})
    app = sci.create_application("app", host="lab-pc")
    sci.run(10)
    for parser in CLAUSE_PARSERS.values():
        parser.cache_clear()
    rng = random.Random(29)
    parses = dict.fromkeys(CLAUSE_PARSERS, 0)
    texts = {clause: set() for clause in CLAUSE_PARSERS}
    for _ in range(queries):
        builder = sci.query("app")
        if rng.random() < 0.5:
            builder.profiles_of_type(rng.choice(CLAUSE_TYPES))
        else:
            builder.profile_of(rng.choice(CLAUSE_NAMES))
        chosen = {"where": rng.choice(CLAUSE_WHERE),
                  "when": rng.choice(CLAUSE_WHEN),
                  "which": rng.choice(CLAUSE_WHICH)}
        query = (builder.where(chosen["where"]).when(chosen["when"])
                 .which(chosen["which"]).build())
        app.submit_query(query)
        wire = query.to_wire()
        for clause in CLAUSE_PARSERS:
            parses[clause] += 1 + (clause in chosen)
            texts[clause].add(wire[clause])
            texts[clause].add(chosen.get(clause, wire[clause]))
        sci.run(0.5)
    sci.run(10)
    return {"memo": {clause: parser.cache_info()
                     for clause, parser in CLAUSE_PARSERS.items()},
            "parses": parses,
            "distinct": {clause: len(seen) for clause, seen in texts.items()},
            "received": sci.range("r").queries_received,
            "malformed": malformed(sci.network.obs.metrics)}


def decoded_arrivals():
    """A seeded one-range run (door sensors, two printers, two walkers
    tracked by an application, one profile query) with the GUID and spec
    memos (``repro.core.memo``) emptied first: every text handed to
    ``GUID.from_hex`` and every key handed to the spec memo is recorded,
    every compiled row counts its calls, and an attached event log's
    ``deliver`` rows count each arrival by kind (the stream)."""
    from collections import Counter
    from repro import SCI, SCIConfig
    from repro.core import ids, types
    from repro.net.wire import VERBS
    from tests.net.eventlog import attach

    texts, keys, rows = [], [], Counter()
    from_hex, spec_memo = ids.GUID.from_hex, types.shared_spec
    parses = {verb: row.parse for verb, row in VERBS.items()}

    def counted(verb, parse):
        def count(payload):
            rows[verb] += 1
            return parse(payload)
        return count

    def record_text(text):
        texts.append(text)
        return from_hex(text)

    def record_key(*key):
        keys.append(key)
        return spec_memo(*key)

    from_hex.cache_clear()
    spec_memo.cache_clear()
    ids.GUID.from_hex = staticmethod(record_text)
    types.shared_spec = record_key
    for verb, row in VERBS.items():
        row.parse = counted(verb, row.parse)
    try:
        sci = SCI(config=SCIConfig(seed=DECODE_SEED))
        log = attach(sci.network)
        sci.create_range("r", places=["L10"], hosts=["lab-pc"])
        sci.add_door_sensors("r")
        sci.add_printers("r", {"P1": "L10.03", "P2": "L10.01"})
        app = sci.create_application("app", host="lab-pc")
        sci.run(10)
        for person in ("bob", "alice"):
            sci.add_person(person, room="corridor")
            app.submit_query(sci.query("app").subscribe(
                "location", "topological", subject=person).build())
        app.submit_query(sci.query("app").profiles_of_type("printer")
                         .build())
        sci.run(5)
        for room in ("L10.01", "L10.03", "L10.02", "L10.01", "L10.03"):
            sci.walk("bob", room)
            sci.walk("alice", room)
            sci.run(20)
    finally:
        ids.GUID.from_hex = staticmethod(from_hex)
        types.shared_spec = spec_memo
        for verb, row in VERBS.items():
            row.parse = parses[verb]
    return {"guid": from_hex.cache_info(), "texts": len(texts),
            "distinct texts": len(set(texts)),
            "spec": spec_memo.cache_info(), "keys": len(keys),
            "distinct keys": len(set(keys)), "rows": rows,
            "arrivals": Counter(entry[3] for entry in log.entries()
                                if entry[2] == "deliver"),
            "suppressed": sci.network.obs.metrics.get(
                "net.dedup.suppressed").total(),
            "malformed": malformed(sci.network.obs.metrics)}


def main() -> int:
    ok = True

    print("smoke-perf: counting path on the default deployment...")
    counting = counting_path()
    per_delivery = counting["incs"] / max(counting["delivered"], 1)
    ok &= check(counting["delivered"] > 0
                and per_delivery <= MAX_INCS_PER_DELIVERY,
                f"{counting['incs']} validated Counter.inc calls for "
                f"{counting['delivered']} deliveries ({per_delivery:.3f} per "
                f"delivery, <= {MAX_INCS_PER_DELIVERY})")
    arrivals = counting["arrivals"]
    ok &= check(counting["window"] == arrivals["exchange"]
                == EXCHANGE_ARRIVALS and arrivals["one-way"] > 0
                and not counting["suppressed"],
                f"the dedup windows hold the {arrivals['exchange']} "
                f"request/reply arrivals (pinned {EXCHANGE_ARRIVALS}) and "
                f"none of the {arrivals['one-way']} one-way ones "
                f"({counting['window']} entries in all)")

    print(f"smoke-perf: publish fan-out at {SCALE} subscriptions...")
    fanout = measure_publish(SCALE, publishes=PUBLISHES)
    hits = fanout["metrics"].counter("mediator.index.hits").total()
    residual = fanout["metrics"].counter(
        "mediator.index.residual_scans").total()
    linear_scans = PUBLISHES * SCALE  # a linear scan visits every filter
    scan_fraction = (hits + residual) / linear_scans
    ok &= check(fanout["delivered"] > 0,
                f"publishes reach subscribers ({fanout['delivered']} "
                "deliveries)")
    ok &= check(hits > 0, f"mediator.index.hits non-zero ({hits:.0f})")
    ok &= check(scan_fraction <= MAX_SCAN_FRACTION,
                f"scanned {scan_fraction:.3f} of the linear-scan candidate set "
                f"(<= {MAX_SCAN_FRACTION})")
    stats = fanout["stats"]
    residual_share = stats["residual_nodes"] / SCALE
    ok &= check(residual_share <= MAX_RESIDUAL_SUBSCRIPTIONS,
                f"residual filter nodes {residual_share:.3f} of subscriptions "
                f"(<= {MAX_RESIDUAL_SUBSCRIPTIONS}; "
                f"{stats['indexed_nodes']} indexed, "
                f"{stats['residual_nodes']} residual)")

    print(f"smoke-perf: resolver index at {SCALE} profiles...")
    resolver, n_types = build_resolver(SCALE)
    for i in range(10):
        resolver.resolve(TypeSpec(f"sense-{i % n_types}", "raw", f"s{i}"))
    ok &= check(resolver.index_rebuilds == 1,
                f"profile index built once across every resolve "
                f"({resolver.index_rebuilds} rebuilds)")
    ok &= check(resolver.index_hits >= 10,
                f"candidate lookups served from the index "
                f"({resolver.index_hits} hits)")

    print(f"smoke-perf: Context Server query path at {QUERY_PATH_PROFILES} "
          f"profiles, {QUERY_PATH_CHURN} churn steps...")
    query_path = query_path_under_churn()
    ok &= check(query_path["rebuilds"] == 1,
                f"provider index built once over {QUERY_PATH_CHURN} "
                f"membership changes ({query_path['rebuilds']} rebuilds)")
    ok &= check(query_path["deltas"] == query_path["reported"],
                f"each reported arrival or departure is one delta "
                f"({query_path['deltas']} deltas == "
                f"{query_path['reported']} membership writes)")
    ok &= check(query_path["filed"] == query_path["brought"],
                f"no lookup refiles the population ({query_path['filed']} "
                f"profiles filed after the build == "
                f"{query_path['brought']} arrivals and re-registrations)")
    ok &= check(query_path["answered"] > 0
                and query_path["indexed_digest"]
                == query_path["scanned_digest"],
                f"What-index answers digest-equal to the reference scan "
                f"({query_path['answered']} records answered, digest "
                f"{query_path['indexed_digest'][:12]}…)")
    ok &= check(query_path["bound_read"] is not None
                and 0 < query_path["bound_read"] <= query_path["bound_held"],
                f"subject-bound resolve read {query_path['bound_read']} "
                f"provider entries (<= {query_path['bound_held']} in its "
                f"subject's and the unbound sub-buckets, of "
                f"{query_path['location_offers']} location offers)")
    ok &= check(query_path["reuse_hits"] == 1 and query_path["builds"] == 1,
                f"an equal second subscription reused the graph "
                f"({query_path['reuse_hits']} reuse hits, "
                f"{query_path['builds']} builds)")

    print(f"smoke-perf: registration storm, {STORM_MACHINES} machines x "
          f"{STORM_PER_MACHINE} components...")
    storm = registration_storm()
    ok &= check(storm["registered"] == storm["announces"],
                f"every component registered ({storm['registered']} of "
                f"{storm['announces']})")
    ok &= check(storm["delivered"]["component-up"] == storm["expected_heard"],
                f"component-up delivered to listening daemons only "
                f"({storm['delivered']['component-up']} deliveries == "
                f"{storm['expected_heard']} announce x daemon pairs)")
    ok &= check(storm["unheard"] == 0,
                f"no announce unheard ({storm['unheard']:.0f})")
    ok &= check(storm["delivered_total"] == 4 * storm["registered"],
                f"four deliveries per handshake "
                f"({storm['delivered_total']} / {storm['registered']} = "
                f"{storm['delivered_total'] / max(storm['registered'], 1):.2f})")

    print(f"smoke-perf: lease renewal, {RENEWAL_MACHINES} machines x "
          f"{RENEWAL_PER_MACHINE} members for {RENEWAL_SECONDS:.0f} "
          f"sim-units...")
    renewal = renewal_traffic()
    ok &= check(renewal["heartbeat"] == renewal["expected"],
                f"one heartbeat per machine per lease/3 "
                f"({renewal['heartbeat']} heartbeats == "
                f"{renewal['expected']})")
    ok &= check(renewal["heartbeat-ack"] == 0,
                f"renewal is one-way ({renewal['heartbeat-ack']} "
                f"heartbeat-acks)")
    ok &= check(renewal["registered"] == renewal["members"],
                f"every member still registered ({renewal['registered']} "
                f"of {renewal['members']})")

    print("smoke-perf: registrar lease book...")
    net = Network(latency_model=FixedLatency(0.5), seed=7)
    net.add_host("h")
    guids = GuidFactory(seed=41)
    lease = 10.0
    registrar = Registrar(guids.mint(), "h", net, "smoke",
                          context_server=guids.mint(),
                          event_mediator=guids.mint(),
                          lease_duration=lease)
    from repro.entities.profile import Profile  # noqa: E402
    from repro.server.registrar import RegistrationRecord  # noqa: E402
    idle = net.scheduler.pending
    evicted_at = set()
    registrar.on_departure = (
        lambda record, reason: evicted_at.add(net.scheduler.now))
    for i in range(20):
        profile = Profile(guids.mint(), f"ce-{i}")
        registrar.register_record(RegistrationRecord(
            profile=profile, kind="ce", registered_at=net.scheduler.now,
            lease_expiry=0.0))  # leased; the Registrar stamps the deadline
    net.scheduler.run_for(30)
    ok &= check(registrar.evictions == 20,
                f"all unrenewed leases evicted ({registrar.evictions})")
    ok &= check(evicted_at == {lease + lease / 2},
                f"evicted together at lease + lease/2 "
                f"({sorted(evicted_at)} == [{lease + lease / 2}])")
    ok &= check(net.scheduler.pending == idle,
                f"no timer left once the book is empty "
                f"({net.scheduler.pending} pending == {idle})")

    print(f"smoke-perf: overlay dissemination at {OVERLAY_NODES} nodes...")
    from repro.overlay.scinet import SCINet  # noqa: E402
    onet = Network(latency_model=FixedLatency(0.5), seed=11)
    sci = SCINet(onet)
    for i in range(OVERLAY_NODES):
        sci.create_node(f"oh{i % 8}", range_name=f"r{i}",
                        owner_cs_hex=f"cs-{i}", places=[f"room-{i}"])
    onet.run_until_idle()
    sent = onet.obs.metrics.counter("overlay.bcast.sent")
    dups = onet.obs.metrics.counter("overlay.bcast.dup_suppressed")
    ok &= check(sent.value(mode="tree") > 0,
                f"join announces used the distribution tree "
                f"({sent.value(mode='tree'):.0f} msgs)")
    ok &= check(dups.total() == 0,
                "tree dissemination produced zero duplicates")
    # on the quiesced overlay one full announce costs exactly N-1 messages
    tree_before = sent.value(mode="tree")
    sci.nodes()[3].broadcast("announce-range",
                             {"range": "r3", "cs": "cs-3",
                              "places": ["room-3"]})
    onet.run_until_idle()
    tree_delta = sent.value(mode="tree") - tree_before
    ok &= check(tree_delta == OVERLAY_NODES - 1 and dups.total() == 0,
                f"quiesced announce cost exactly N-1 tree messages "
                f"({tree_delta:.0f} == {OVERLAY_NODES - 1})")
    directories = [dict(node.directory) for node in sci.nodes()]
    ok &= check(all(d == directories[0] and len(d) == OVERLAY_NODES
                    for d in directories),
                f"directory fully replicated on all {OVERLAY_NODES} nodes")

    hits = sum(node.table.cache_hits for node in sci.nodes())
    builds = sum(node.table.cache_builds for node in sci.nodes())
    ok &= check(builds > 0 and hits >= MIN_CACHE_HIT_RATIO * builds,
                f"known-node views served from the memo "
                f"({hits} hits vs {builds} builds)")

    print("smoke-perf: scheduler order equivalence...")
    from tests.parallel.scenarios import run_scenario  # noqa: E402
    production = run_scenario()
    reference = run_scenario(reference_heap=True)
    ok &= check(production["digest"] == reference["digest"]
                and production["per_host"] == reference["per_host"],
                f"canonical-key log bit-identical to the single-heap "
                f"reference ({reference['entries']} entries, "
                f"digest {reference['digest'][:12]}…)")
    ok &= check(production["delivered"] == reference["delivered"]
                and production["by_kind"] == reference["by_kind"],
                f"stats equal the reference totals "
                f"({reference['delivered']} delivered)")

    print("smoke-perf: filter-table delivery equivalence...")
    from tests.opgraph.scenarios import run_scenario as run_opgraph_scenario  # noqa: E402
    scan_run = run_opgraph_scenario(reference=True)
    opgraph_run = run_opgraph_scenario()
    ok &= check(opgraph_run["logs"] == scan_run["logs"],
                f"per-subscription logs entry-identical to the reference "
                f"scan ({scan_run['delivered']} deliveries over "
                f"{len(scan_run['logs'])} subscriptions)")
    work = work_counts(opgraph_run["metrics"])
    ok &= check(work == EQUIVALENCE_WORK,
                f"equivalence scenario work counts {work} == "
                f"{EQUIVALENCE_WORK}")

    print(f"smoke-perf: filter-table look-alikes, {OPGRAPH_TEMPLATES} "
          "templates...")
    from tests.events.reference_scan import ReferenceScanMediator  # noqa: E402
    small = lookalike_dispatch(SCAN_TRACKERS)
    scan = lookalike_dispatch(SCAN_TRACKERS, ReferenceScanMediator)
    ok &= check(small["delivered"] > 0 and small["logs"] == scan["logs"],
                f"per-sink logs equal the reference scan's at "
                f"{SCAN_TRACKERS} trackers ({small['delivered']} deliveries "
                f"over {len(small['logs'])} sinks)")
    ok &= check(small["event_messages"] == small["pairs"] < small["delivered"],
                f"one event message per (publish, sink): "
                f"{small['event_messages']} messages == {small['pairs']} "
                f"pairs < {small['delivered']} deliveries")
    ok &= check(small["work"] == LOOKALIKE_WORK,
                f"look-alike work counts {small['work']} == {LOOKALIKE_WORK}")
    reuse = lookalike_dispatch(OPGRAPH_TRACKERS)["opgraph"]["reuse_ratio"]
    ok &= check(reuse > MIN_OPGRAPH_REUSE,
                f"node reuse ratio {reuse:.3f} at {OPGRAPH_TRACKERS} "
                f"trackers (> {MIN_OPGRAPH_REUSE})")
    nodes = lookalike_dispatch(OPGRAPH_SCALE_TRACKERS,
                               publishes=0)["opgraph"]["nodes"]
    ok &= check(nodes <= OPGRAPH_TEMPLATES + OPGRAPH_MONITORS,
                f"{nodes} live nodes at {OPGRAPH_SCALE_TRACKERS} look-alikes "
                f"(<= {OPGRAPH_TEMPLATES} templates + {OPGRAPH_MONITORS} "
                f"monitors)")

    print(f"smoke-perf: clause memo over {CLAUSE_QUERIES} text-built "
          "queries...")
    stream = clause_text_stream()
    ok &= check(stream["received"] == CLAUSE_QUERIES,
                f"every query reached the server once "
                f"({stream['received']} == {CLAUSE_QUERIES})")
    for clause, info in stream["memo"].items():
        distinct, parses = stream["distinct"][clause], stream["parses"][clause]
        ok &= check(info.misses == distinct
                    and info.hits == parses - distinct,
                    f"{clause}: {info.misses} misses == {distinct} distinct "
                    f"texts, {info.hits} hits == {parses} parses - "
                    f"{distinct}")

    print("smoke-perf: decoded ids and specs, compiled rows...")
    decoded = decoded_arrivals()
    arrivals = decoded["arrivals"]
    work = {"arrivals": sum(arrivals.values()),
            **{name: decoded[name] for name in ("texts", "distinct texts",
                                                "keys", "distinct keys")}}
    ok &= check(work == DECODE_WORK,
                f"decode work {work} == pinned {DECODE_WORK}")
    ok &= check(decoded["rows"] == arrivals and not decoded["suppressed"],
                f"each arrival called its compiled row once "
                f"({sum(decoded['rows'].values())} row calls, "
                f"{work['arrivals']} arrivals over {len(arrivals)} kinds)")
    for memo, calls, distinct in (("guid", "texts", "distinct texts"),
                                  ("spec", "keys", "distinct keys")):
        info = decoded[memo]
        ok &= check(info.misses == decoded[distinct]
                    and info.hits == decoded[calls] - decoded[distinct],
                    f"{memo} memo: {info.misses} misses == "
                    f"{decoded[distinct]} {distinct}, {info.hits} hits == "
                    f"{decoded[calls]} - {decoded[distinct]}")

    refused = {"counting": counting["malformed"], "storm": storm["malformed"],
               "renewal": renewal["malformed"],
               "lease book": malformed(net.obs.metrics),
               "overlay": malformed(onet.obs.metrics),
               "look-alikes": small["malformed"],
               "clause texts": stream["malformed"],
               "decoding": decoded["malformed"]}
    ok &= check(not any(refused.values()),
                f"well-formed traffic trips no wire-table row "
                f"(net.messages.malformed {refused})")

    if not ok:
        print("smoke-perf: FAIL")
        return 1
    print("smoke-perf: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
