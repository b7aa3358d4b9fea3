"""F3 — Figure 3: building and running the path configuration.

Reproduced series: (a) query-resolution time for the depth-3 path
configuration as the candidate pool (number of door sensors) grows;
(b) end-to-end update propagation latency through the instantiated
doorSensor -> objLocation -> path -> app chain; (c) the graph-reuse
ablation (Solar's contribution, adopted by SCI).
"""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec, standard_registry
from repro.composition.resolver import QueryResolver
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.server.deployment import standard_templates

from repro import SCI
from repro.core.api import SCIConfig
from repro.query.model import QueryBuilder


class PathRecorder(ContextAwareApplication):
    """Keeps the path events it consumed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.paths = []

    def on_event(self, event, sub_id):
        if event.type_name == "path":
            self.paths.append(event)


def make_resolver(sensor_count, seed=0):
    guids = GuidFactory(seed=seed)
    building = livingstone_tower()
    registry = register_location_converters(standard_registry(), building)
    profiles = [
        Profile(guids.mint(), f"door-{index}", EntityClass.DEVICE,
                outputs=[TypeSpec("presence", "tag-read")])
        for index in range(sensor_count)
    ]
    templates = standard_templates(guids, building)
    return QueryResolver(registry, live_profiles=lambda: profiles,
                         templates=templates)


class TestReportFigure3:
    def test_report_resolution_vs_pool_size(self, report):
        report("")
        report("F3  path-query resolution vs door-sensor pool size")
        report(f"{'sensors':>8} | {'plan nodes':>10} | {'plan edges':>10} | "
               f"{'depth':>5}")
        for count in (5, 20, 80):
            resolver = make_resolver(count)
            plan = resolver.resolve(TypeSpec("path", "rooms", "bob->john"))
            report(f"{count:>8} | {plan.node_count():>10} | "
                   f"{len(plan.edges):>10} | {plan.depth():>5}")
            assert plan.depth() == 3
            # every sensor is wired into each objLocation (multi-source)
            assert plan.node_count() == count + 3  # sensors + 2 objloc + path

    def test_report_update_propagation_latency(self, report):
        sci = SCI(config=SCIConfig(seed=3))
        sci.create_range("livingstone", places=["livingstone"], hosts=["pda"])
        sensors = sci.add_door_sensors("livingstone")
        app = sci.create_application("pathApp", host="pda",
                                     app_class=PathRecorder)
        sci.run(5)
        app.submit_query(QueryBuilder("bob")
                         .subscribe("path", "rooms", subject="bob->john")
                         .build())
        sci.run(5)
        # seed john's position, then time one bob update end to end
        sensors["door:corridor--L10.02"].detect("john", "corridor", "L10.02")
        sci.run(10)
        before = len(app.paths)
        fired_at = sci.now
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        sci.run(20)
        events = app.paths
        assert len(events) > before
        latency = events[-1].timestamp - fired_at  # publication chain time
        delivery = sci.now  # bounded by the run window
        report(f"door event -> path event publication: {latency:.2f} simulated "
               f"time units (3 event hops through the mediator)")
        assert latency < 10.0

    def test_report_graph_reuse_ablation(self, report):
        results = {}
        for reuse in (True, False):
            sci = SCI(config=SCIConfig(seed=4))
            sci.create_range("livingstone", places=["livingstone"],
                             hosts=["pda"])
            sci.add_door_sensors("livingstone")
            apps = [sci.create_application(f"app-{i}", host="pda")
                    for i in range(5)]
            sci.run(5)
            manager = sci.range("livingstone").configurations
            wanted = TypeSpec("location", "topological", "bob")
            for app in apps:
                manager.deliver(wanted, app.guid.hex,
                                f"q-{app.name}", reuse=reuse)
            results[reuse] = manager.builds
        report(f"graph reuse ablation: 5 identical queries -> "
               f"{results[True]} build(s) with reuse, "
               f"{results[False]} without")
        assert results[True] == 1
        assert results[False] == 5


class TestBenchFigure3:
    @pytest.mark.parametrize("count", [5, 20, 80])
    def test_bench_resolution(self, benchmark, count):
        resolver = make_resolver(count)
        wanted = TypeSpec("path", "rooms", "bob->john")
        benchmark(resolver.resolve, wanted)

    def test_bench_configuration_instantiation(self, benchmark):
        def run():
            sci = SCI(config=SCIConfig(seed=5))
            sci.create_range("livingstone", places=["livingstone"],
                             hosts=["pda"])
            sci.add_door_sensors("livingstone")
            app = sci.create_application("app", host="pda")
            sci.run(5)
            app.submit_query(QueryBuilder("bob")
                             .subscribe("path", "rooms", subject="bob->john")
                             .build())
            sci.run(5)
            assert sci.range("livingstone").configurations.builds == 1

        benchmark.pedantic(run, rounds=3, iterations=1)
