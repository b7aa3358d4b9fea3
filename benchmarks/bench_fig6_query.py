"""F6 — Figure 6: the query model.

Reproduced series: (a) XML parse/serialise cost for the Figure-6 wire form;
(b) behaviour of all four query modes against one deployed range (the
paper's mode list is the spec; the report shows each doing its job).
"""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.entities.entity import ContextAwareApplication
from repro.query.language import query_from_xml, query_to_xml
from repro.query.model import QueryBuilder


SAMPLE = (QueryBuilder("john")
          .advertisement("printer")
          .where("within(room:L10)")
          .when("enters(bob, L10.01) until(600)")
          .which("reachable; available; no-queue; closest-to(me)")
          .with_id("john:1")
          .build())


class Recorder(ContextAwareApplication):
    """Keeps the query results and location values it consumed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.results = []
        self.locations = []

    def on_query_result(self, query_id, fields):
        self.results.append(fields)

    def on_event(self, event, sub_id):
        if event.type_name == "location":
            self.locations.append(event.value)


@pytest.fixture(scope="module")
def deployment():
    sci = SCI(config=SCIConfig(seed=6))
    sci.create_range("livingstone", places=["livingstone"], hosts=["pc"])
    sci.add_door_sensors("livingstone")
    sci.add_printers("livingstone", {"P1": "L10.03"})
    sci.add_person("bob", room="corridor")
    app = sci.create_application("app", host="pc", app_class=Recorder)
    sci.run(5)
    return sci, app


class TestReportFigure6:
    def test_report_all_four_modes(self, report, deployment):
        sci, app = deployment
        report("")
        report("F6  the four query modes against one range")

        profile_q = QueryBuilder("ops").profiles_of_type("printer").build()
        app.submit_query(profile_q)
        sci.run(10)
        profiles = app.results[-1]["profiles"]
        report(f"  profile request      -> {len(profiles)} profile(s): "
               f"{[p['name'] for p in profiles]}")
        assert profiles

        ad_q = (QueryBuilder("bob").advertisement("printer")
                .which("reachable; available").build())
        app.submit_query(ad_q)
        sci.run(10)
        selected = app.results[-1]["selected"]["name"]
        report(f"  advertisement request-> selected {selected}")
        assert selected == "P1"

        sub_q = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob").build())
        app.submit_query(sub_q)
        sci.run(5)
        sci.walk("bob", "L10.01")
        sci.run(30)
        sci.walk("bob", "corridor")
        sci.run(30)
        stream = list(app.locations)
        report(f"  event subscription   -> {len(stream)} update(s): {stream}")
        assert len(stream) >= 2

        app.cancel_query(sub_q.query_id)  # retire the durable stream first
        sci.run(5)
        app.locations.clear()
        once_q = (QueryBuilder("ops")
                  .once("location", "topological", subject="bob").build())
        app.submit_query(once_q)
        sci.run(5)
        sci.walk("bob", "L10.02")
        sci.run(30)
        sci.walk("bob", "corridor")
        sci.run(30)
        once_stream = app.locations
        report(f"  one-time subscription-> {len(once_stream)} update(s): "
               f"{once_stream}")
        assert len(once_stream) == 1

    def test_report_wire_size(self, report):
        xml = query_to_xml(SAMPLE)
        report(f"figure-6 wire form: {len(xml)} bytes for the CAPA query")
        assert query_from_xml(xml).to_wire() == SAMPLE.to_wire()


class TestBenchFigure6:
    def test_bench_serialise(self, benchmark):
        benchmark(query_to_xml, SAMPLE)

    def test_bench_parse(self, benchmark):
        xml = query_to_xml(SAMPLE)
        benchmark(query_from_xml, xml)

    def test_bench_round_trip_batch(self, benchmark):
        def run():
            for _ in range(100):
                query_from_xml(query_to_xml(SAMPLE))

        benchmark(run)
