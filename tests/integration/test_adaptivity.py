"""The adaptivity claim (C1) end-to-end: failures, repair, representation
bridging under live traffic."""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.faults.monitor import StreamProbe
from repro.query.model import QueryBuilder
from tests.recording import RecordingApp


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=8, lease_duration=10.0))
    sci.create_range("livingstone", places=["livingstone"], hosts=["pc"])
    sensors = sci.add_door_sensors("livingstone")
    detector = sci.add_wlan_detector("livingstone")
    sci.add_person("bob", room="corridor", device_host="bob-dev")
    app = sci.create_application("monitor", host="pc", app_class=RecordingApp)
    sci.run(5)
    app.submit_query(QueryBuilder("ops")
                     .subscribe("location", "topological", subject="bob")
                     .build())
    sci.run(5)
    return sci, app, sensors, detector


class TestSingleSensorFailure:
    def test_repair_keeps_stream_alive(self, deployment):
        sci, app, sensors, _ = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        victim = sensors["door:corridor--L10.01"]
        sci.injector.crash(victim)
        sci.run(30)  # lease expiry + repair
        cs = sci.range("livingstone")
        assert cs.configurations.repairs >= 1
        before = len(app.events_of_type("location"))
        # bob moves through a different (surviving) door
        sci.walk("bob", "corridor")
        sci.walk("bob", "L10.02")
        sci.run(40)
        assert len(app.events_of_type("location")) > before

    def test_config_stays_active(self, deployment):
        sci, app, sensors, _ = deployment
        sci.injector.crash(sensors["door:corridor--L10.03"])
        sci.run(30)
        cs = sci.range("livingstone")
        from repro.composition.manager import ConfigState
        assert all(c.state == ConfigState.ACTIVE
                   for c in cs.configurations.configurations())


class TestTotalModalityFailure:
    def test_falls_back_to_wlan_with_converter(self, deployment):
        sci, app, sensors, _ = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        for sensor in sensors.values():
            sci.injector.crash(sensor)
        failure_at = sci.now
        probe = StreamProbe(app, "location")
        sci.walk("bob", "L10.03")
        sci.run(60)
        # stream resumed through the wireless modality
        assert probe.count() > 0
        last = app.events_of_type("location")[-1]
        assert "converted_by" in last.attributes
        # and values are still topological room names
        assert last.value in sci.building.room_names()

    def test_recovery_bounded_by_lease_plus_scan(self, deployment):
        sci, app, sensors, detector = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        probe = StreamProbe(app, "location")
        failure_at = sci.now
        for sensor in sensors.values():
            sci.injector.crash(sensor)
        sci.run(60)
        recovery = probe.recovery_time(failure_at)
        assert recovery is not None
        # lease 10 + lease/2 + wlan scan 5 + slack
        assert recovery < 25.0


class TestUnrepairableFailure:
    def test_app_notified_when_nothing_left(self, deployment):
        sci, app, sensors, detector = deployment
        for sensor in sensors.values():
            sci.injector.crash(sensor)
        sci.injector.crash(detector)
        sci.run(60)
        failures = [r for r in app.results if not r.get("ok", True)]
        assert failures
        assert "unrepairable" in failures[0]["error"]


class TestRepairTracing:
    """C1 observed through the trace store instead of ad-hoc counters."""

    def test_repair_span_appears_with_bounded_latency(self, deployment):
        sci, app, sensors, _ = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        tracer = sci.network.obs.tracer
        assert tracer.find_spans("config.repair") == []
        failure_at = sci.now
        sci.injector.crash(sensors["door:corridor--L10.01"])
        sci.run(30)
        repairs = tracer.find_spans("config.repair")
        assert repairs, "a repair span must root a new trace"
        span = repairs[0]
        assert span.closed
        assert span.attributes["outcome"] == "repaired"
        assert span.attributes["range"] == "livingstone"
        # detection (lease expiry) dominates; re-composition is in-span
        latency = span.start - failure_at
        assert 0 < latency < 10.0 + 10.0  # lease + eviction grace slack

    def test_delivery_resumes_after_repair_span(self, deployment):
        sci, app, sensors, _ = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        sci.injector.crash(sensors["door:corridor--L10.01"])
        sci.run(30)
        span = sci.network.obs.tracer.find_spans("config.repair")[0]
        before = len(app.events_of_type("location"))
        sci.walk("bob", "corridor")
        sci.walk("bob", "L10.02")
        sci.run(40)
        fresh = app.events_of_type("location")[before:]
        assert fresh, "the stream must resume after the repair"
        assert all(event.timestamp >= span.end for event in fresh)

    def test_repair_metric_agrees_with_trace(self, deployment):
        sci, app, sensors, _ = deployment
        sci.walk("bob", "L10.01")
        sci.run(30)
        for sensor in sensors.values():
            sci.injector.crash(sensor)
        sci.run(60)
        tracer = sci.network.obs.tracer
        repaired = [span for span in tracer.find_spans("config.repair")
                    if span.attributes.get("outcome") == "repaired"]
        counter = sci.network.obs.metrics.get("config.graph.repairs")
        assert counter is not None
        assert counter.value(range="livingstone") == len(repaired) > 0


class TestMessageLossResilience:
    def test_stream_survives_loss_episode(self, deployment):
        sci, app, sensors, _ = deployment
        sci.injector.loss_episode(0.3, duration=30.0)
        sci.walk("bob", "L10.01")
        sci.walk("bob", "corridor")
        sci.walk("bob", "L10.02")
        sci.run(120)
        # not every update survives, but the stream as a whole does
        assert app.events_of_type("location")
