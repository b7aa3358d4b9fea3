"""Stream probe: arrival tracking, gap detection, recovery time."""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import Profile
from repro.events.event import ContextEvent
from repro.faults.monitor import StreamProbe
from repro.net.message import Message


@pytest.fixture
def app_and_probe(network, guids):
    app = ContextAwareApplication(Profile(guids.mint(), "app"),
                                  "host-a", network)
    probe = StreamProbe(app, "location")
    return app, probe


def push_event(network, app, at, type_name="location"):
    """Deliver one event to the app at simulated time ``at``."""
    source = GuidFactory(seed=99).mint()

    def deliver():
        event = ContextEvent(TypeSpec(type_name, "topological", "bob"),
                             "L10.01", app.guid, network.scheduler.now)
        app.handle_component_message(
            Message(sender=app.guid, recipient=app.guid, kind="event",
                    payload={"event": event.to_wire(), "subs": [[1, None]]}))

    network.scheduler.schedule_at(at, deliver)


class TestProbe:
    def test_counts_matching_arrivals(self, network, app_and_probe):
        app, probe = app_and_probe
        for at in (1.0, 2.0, 3.0):
            push_event(network, app, at)
        push_event(network, app, 4.0, type_name="temperature")
        network.scheduler.run_until_idle()
        assert probe.count() == 3

    def test_untyped_probe_counts_all(self, network, guids):
        app = ContextAwareApplication(Profile(guids.mint(), "app2"),
                                      "host-a", network)
        probe = StreamProbe(app)
        push_event(network, app, 1.0)
        push_event(network, app, 2.0, type_name="temperature")
        network.scheduler.run_until_idle()
        assert probe.count() == 2

    def test_original_on_event_still_called(self, network, guids):
        app = ContextAwareApplication(Profile(guids.mint(), "app3"),
                                      "host-a", network)
        seen = []
        app.on_event = lambda event, sub_id: seen.append(event.value)
        StreamProbe(app, "location")
        push_event(network, app, 1.0)
        network.scheduler.run_until_idle()
        assert seen == ["L10.01"]

    def test_gap_detection(self, network, app_and_probe):
        app, probe = app_and_probe
        for at in (1.0, 2.0, 3.0, 13.0, 14.0):
            push_event(network, app, at)
        network.scheduler.run_until_idle()
        gaps = probe.gaps(expected_interval=2.0, until=14.0)
        assert len(gaps) == 1
        assert gaps[0].start == 3.0
        assert gaps[0].length == pytest.approx(10.0)

    def test_trailing_gap_counted(self, network, app_and_probe):
        app, probe = app_and_probe
        push_event(network, app, 1.0)
        network.scheduler.run_until_idle()
        network.scheduler.run_until(50.0)
        gaps = probe.gaps(expected_interval=5.0)
        assert gaps[-1].end == 50.0

    def test_recovery_time(self, network, app_and_probe):
        app, probe = app_and_probe
        for at in (1.0, 2.0, 20.0):
            push_event(network, app, at)
        network.scheduler.run_until_idle()
        assert probe.recovery_time(failure_at=5.0) == pytest.approx(15.0)
        assert probe.recovery_time(failure_at=30.0) is None

    def test_arrivals_between(self, network, app_and_probe):
        app, probe = app_and_probe
        for at in (1.0, 5.0, 9.0):
            push_event(network, app, at)
        network.scheduler.run_until_idle()
        assert probe.arrivals_between(2.0, 8.0) == [5.0]

    def test_invalid_interval(self, app_and_probe):
        _, probe = app_and_probe
        with pytest.raises(ValueError):
            probe.gaps(0.0)


class TestAttachAnchor:
    """The first gap is measured from when the probe attached, not from the
    first arrival — a slow-starting or completely silent stream is a gap."""

    def test_silent_stream_is_one_long_gap(self, network, app_and_probe):
        app, probe = app_and_probe
        network.scheduler.run_until(30.0)
        gaps = probe.gaps(expected_interval=2.0)
        assert len(gaps) == 1
        assert gaps[0].start == 0.0 and gaps[0].end == 30.0
        assert probe.longest_gap(2.0) == pytest.approx(30.0)

    def test_slow_start_counted_from_attach(self, network, app_and_probe):
        app, probe = app_and_probe
        for at in (10.0, 11.0, 12.0):
            push_event(network, app, at)
        network.scheduler.run_until_idle()
        gaps = probe.gaps(expected_interval=2.0, until=12.0)
        assert len(gaps) == 1
        assert gaps[0].start == 0.0 and gaps[0].end == 10.0

    def test_late_attach_anchor(self, network, guids):
        # a probe attached at t=20 must not see the quiet [0, 20) epoch
        network.scheduler.run_until(20.0)
        app = ContextAwareApplication(Profile(guids.mint(), "late-app"),
                                      "host-a", network)
        probe = StreamProbe(app, "location")
        assert probe.attached_at == 20.0
        push_event(network, app, 21.0)
        network.scheduler.run_until_idle()
        assert probe.gaps(expected_interval=2.0, until=22.0) == []

    def test_prompt_first_arrival_no_gap(self, network, app_and_probe):
        app, probe = app_and_probe
        push_event(network, app, 1.0)
        network.scheduler.run_until_idle()
        assert probe.gaps(expected_interval=2.0, until=2.0) == []
