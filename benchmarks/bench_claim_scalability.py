"""C2 — "Scalable infrastructure".

Reproduced series: (a) per-query cost as entities per range grow; (b) system
behaviour as the number of ranges grows (query forwarding through the SCINET
directory stays O(1) lookups + one forward hop; no node's load grows with
total system size the way the hierarchy root's does in F1).
"""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec, standard_registry
from repro.entities.entity import ContextAwareApplication, ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.net.transport import FixedLatency, Network
from repro.query.model import QueryBuilder
from repro.server.context_server import ContextServer
from repro.server.deployment import standard_templates
from repro.server.range import RangeDefinition

from repro import SCI
from repro.core.api import SCIConfig


def populated_range(entity_count, seed=0):
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    net.add_host("cs-host")
    net.add_host("client")
    guids = GuidFactory(seed=seed)
    building = livingstone_tower()
    registry = register_location_converters(standard_registry(), building)
    server = ContextServer(
        guids.mint(), "cs-host", net,
        RangeDefinition("range", places=["livingstone"],
                        hosts=["cs-host", "client"]),
        building, registry, guids,
        templates=standard_templates(guids, building),
        lease_duration=1e9)
    for index in range(entity_count):
        ce = ContextEntity(
            Profile(guids.mint(), f"sensor-{index}", EntityClass.DEVICE,
                    outputs=[TypeSpec("presence", "tag-read")]),
            "client", net)
        ce.start()
    app = ContextAwareApplication(
        Profile(guids.mint(), "app", EntityClass.SOFTWARE), "client", net)
    app.start()
    net.scheduler.run_for(20)
    return net, server, app


def query_latency(net, server, app):
    query = (QueryBuilder("ops")
             .subscribe("location", "topological", subject="bob").build())
    started = net.scheduler.now
    app.submit_query(query)
    net.scheduler.run_for(20)
    ack = app.query_acks[query.query_id]
    assert ack["ok"], ack
    # resolution+instantiation happen at the CS; the ack round trip brackets it
    return net.scheduler.now - started, server.configurations.configurations()[-1]


class TestReportScalability:
    def test_report_entities_per_range(self, report):
        report("")
        report("C2a  per-query behaviour vs entities per range")
        report(f"{'entities':>8} | {'plan nodes':>10} | "
               f"{'resolver backtracks':>19}")
        for count in (10, 50, 200):
            net, server, app = populated_range(count)
            _latency, config = query_latency(net, server, app)
            resolver = server.configurations.resolver
            report(f"{count:>8} | {config.plan.node_count():>10} | "
                   f"{resolver.backtracks:>19}")
            # the plan wires all sensors (multi-source), but no backtracking
            # explosion occurs
            assert resolver.backtracks <= count

    def test_report_ranges_sweep(self, report):
        report("")
        report("C2b  multi-range deployment: directory + forwarding")
        report(f"{'ranges':>6} | {'directory entries/node':>22} | "
               f"{'forward hops':>12}")
        for count in (2, 4, 8):
            sci = SCI(config=SCIConfig(seed=count))
            # carve the building's rooms into per-range slices
            rooms = sci.building.room_names()
            for index in range(count):
                slice_rooms = rooms[index::count]
                sci.create_range(f"r{index}", places=slice_rooms)
            sci.run(5)
            node = sci.scinet.nodes()[0]
            first = sci.ranges["r0"]
            target_room = rooms[1]  # governed by r1
            app = sci.create_application("app", host="cs-r0")
            sci.run(5)
            query = (QueryBuilder("x").profiles_of_type("device")
                     .where(f"room:{target_room}").build())
            app.submit_query(query)
            sci.run(10)
            # forwarding is a single directory lookup + one hop, however
            # many ranges exist
            report(f"{count:>6} | {len(node.directory):>22} | "
                   f"{first.queries_forwarded:>12}")
            assert first.queries_forwarded == 1


class TestBenchScalability:
    @pytest.mark.parametrize("count", [10, 50, 200])
    def test_bench_query_over_population(self, benchmark, count):
        def run():
            net, server, app = populated_range(count)
            query_latency(net, server, app)

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_bench_resolver_only_200_sensors(self, benchmark):
        net, server, app = populated_range(200)
        resolver = server.configurations.resolver
        wanted = TypeSpec("location", "topological", "someone")
        benchmark(resolver.resolve, wanted)
