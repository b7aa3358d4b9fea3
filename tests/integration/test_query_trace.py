"""End-to-end query tracing (the CAPA walk-through, observed).

One submitted query must yield a single *connected* trace covering the
submit, the Context Server handling (including a cross-range forward), the
configuration resolution and the delivery — with simulated-time durations
that nest: children never sum past their root.
"""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.query.model import QueryBuilder
from tests.recording import RecordingApp


@pytest.fixture
def two_ranges():
    sci = SCI(config=SCIConfig(seed=9))
    lobby = sci.create_range("lobby", places=["lobby", "L1"],
                             stations=["ap-lobby"])
    level10 = sci.create_range("level10", places=["L10"])
    sci.add_door_sensors("level10",
                         rooms=level10.definition.rooms(sci.building) + ["lobby"])
    sci.add_printers("level10", {"P1": "L10.03"})
    sci.run(5)
    return sci, lobby, level10


def submit_and_trace(sci, app, query):
    app.submit_query(query)
    sci.run(15)
    tracer = sci.network.obs.tracer
    submits = [span for span in tracer.find_spans("query.submit")
               if span.attributes.get("query") == query.query_id]
    assert len(submits) == 1
    return tracer.trace_of(submits[0]), submits[0]


class TestConnectedQueryTrace:
    def test_forwarded_subscription_trace(self, two_ranges):
        """The acceptance shape: >= 4 connected spans, nested durations."""
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app", host="cs-lobby")
        sci.run(5)
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob")
                 .where("within(room:L10)").build())
        trace, root_span = submit_and_trace(sci, app, query)

        assert trace.is_connected()
        assert len(trace) >= 4
        names = {span.name for span in trace}
        # submit -> CS handling (both ranges) -> resolution; delivery spans
        # (mediator.*) join later once events flow
        assert {"query.submit", "cs.query", "config.resolve"} <= names
        assert len(trace.find("cs.query")) == 2  # lobby + forwarded level10

        # the root is the submit span and it covers the ack round trip
        assert trace.root() is root_span
        assert root_span.closed
        assert root_span.duration > 0
        # direct children are synchronous CS handling: their simulated-time
        # cost nests inside the root RPC window
        child_durations = [span.duration
                           for span in trace.children(root_span.span_id)
                           if span.closed]
        assert child_durations
        assert sum(child_durations) <= root_span.duration

    def test_local_profile_query_trace(self, two_ranges):
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app2", host="cs-level10",
                                     app_class=RecordingApp)
        sci.run(5)
        query = (QueryBuilder("x").profiles_of_type("printer")
                 .where("room:L10.03").build())
        trace, root_span = submit_and_trace(sci, app, query)
        assert trace.is_connected()
        names = {span.name for span in trace}
        assert {"query.submit", "cs.query", "cs.execute",
                "cs.deliver"} <= names
        assert app.results[-1]["profiles"]

    def test_delivery_joins_trace_after_subject_moves(self, two_ranges):
        """Events delivered to the app later still hang off the query trace
        (via the configuration's replayed subscription)."""
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app3", host="cs-lobby",
                                     app_class=RecordingApp)
        sci.run(5)
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob")
                 .where("within(room:L10)").build())
        trace, _root = submit_and_trace(sci, app, query)
        assert trace.find("config.resolve")
        sci.add_person("bob", room="corridor")
        sci.walk("bob", "L10.01")
        sci.run(30)
        assert "L10.01" in [e.value for e in app.events_of_type("location")]

    def test_routed_counter_matches_outcomes(self, two_ranges):
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app4", host="cs-lobby")
        sci.run(5)
        query = (QueryBuilder("visitor").profiles_of_type("printer")
                 .where("room:L10.03").build())
        app.submit_query(query)
        sci.run(15)
        counter = sci.network.obs.metrics.get("cs.query.routed")
        assert counter.value(range="lobby", status="forwarded") == 1
        assert counter.value(range="level10", status="executed") == 1
