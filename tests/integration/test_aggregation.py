"""Non-location composition: temperature smoothing and occupancy counting
through the same query machinery (the 'generalised' in the paper's title)."""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.core.types import TypeSpec
from repro.entities.derived import WindowAggregatorCE
from repro.entities.sensors import TemperatureSensorCE
from repro.query.model import QueryBuilder
from tests.recording import RecordingApp


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=23))
    sci.create_range("r", places=["livingstone"], hosts=["pc"])
    sci.add_door_sensors("r")
    for room, baseline in (("L10.01", 20.0), ("L10.02", 24.0)):
        thermo = TemperatureSensorCE(sci.guids.mint(), "cs-r", sci.network,
                                     room=room, baseline=baseline,
                                     interval=5.0, seed=int(baseline))
        thermo.start()
    smoother = WindowAggregatorCE(sci.guids.mint(), "cs-r", sci.network,
                                  TypeSpec("temperature", "celsius"),
                                  operation="mean", window=4)
    smoother.start()
    app = sci.create_application("app", host="pc", app_class=RecordingApp)
    sci.run(5)
    return sci, app


class TestTemperaturePipeline:
    def test_raw_subscription(self, deployment):
        sci, app = deployment
        app.submit_query(QueryBuilder("ops")
                         .subscribe("temperature", "celsius").build())
        sci.run(30)
        readings = [e.value for e in app.events_of_type("temperature")]
        assert len(readings) >= 6  # two sensors, several periods

    def test_smoothed_subscription_resolves_through_aggregator(self, deployment):
        sci, app = deployment
        query = (QueryBuilder("ops")
                 .subscribe("temperature", "mean-celsius").build())
        app.submit_query(query)
        sci.run(30)
        config = sci.range("r").configurations.configurations()[-1]
        names = {node.profile.name for node in config.plan.nodes.values()}
        assert "mean:temperature" in names
        assert any(name.startswith("thermometer") for name in names)
        smoothed = [e.value for e in app.events_of_type("temperature")
                    if e.representation == "mean-celsius"]
        assert smoothed
        # the mean of two sensors around 20 and 24 settles between them
        assert 18.0 < smoothed[-1] < 26.0

    def test_where_restricts_thermometer(self, deployment):
        sci, app = deployment
        query = (QueryBuilder("ops")
                 .subscribe("temperature", "celsius")
                 .where("room:L10.02").build())
        app.submit_query(query)
        sci.run(30)
        subjects = {e.subject for e in app.events_of_type("temperature")}
        assert subjects == {"L10.02"}


class TestOccupancyPipeline:
    def test_occupancy_tracks_walks(self, deployment):
        sci, app = deployment
        sci.add_person("bob", room="lobby")
        sci.add_person("john", room="lobby")
        # per-person tracking first, so bound location providers exist
        for person in ("bob", "john"):
            app.submit_query(QueryBuilder("ops")
                             .subscribe("location", "topological",
                                        subject=person).build())
        sci.run(5)
        app.submit_query(QueryBuilder("ops")
                         .subscribe("occupancy", "count", subject="L10")
                         .build())
        sci.run(5)
        sci.walk("bob", "L10.01")
        sci.run(40)
        sci.walk("john", "L10.02")
        sci.run(40)
        counts = [e.value for e in app.events_of_type("occupancy")]
        assert counts[-1] == 2
        assert counts == sorted(counts)  # monotone arrivals in this script
        sci.walk("bob", "lobby")
        sci.run(60)
        counts = [e.value for e in app.events_of_type("occupancy")]
        assert counts[-1] == 1
