"""Mediator delivery: sequenced acked delivery, retransmission, resync."""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.entities.profile import EntityClass, Profile
from repro.events import mediator as mediator_module
from repro.events.event import ContextEvent
from repro.events.filters import SubjectFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.events.stream import DEFAULT_RESYNC_AFTER
from repro.faults.injector import FaultInjector
from repro.net.transport import FunctionProcess
from tests.recording import RecordingApp


@pytest.fixture
def mediator(network, guids, monkeypatch):
    monkeypatch.setattr(mediator_module, "DEFAULT_ACK_TIMEOUT", 4.0)
    return EventMediator(guids.mint(), "host-a", network, "test-range")


@pytest.fixture
def app(network, guids, mediator):
    caa = RecordingApp(
        Profile(guids.mint(), "app", entity_class=EntityClass.SOFTWARE),
        "host-b", network)
    # join the range without the Figure-5 handshake; the dummy registrar
    # GUID is never messaged in these tests
    caa.attach_to_range(guids.mint(), mediator.guid, mediator.guid,
                        "test-range")
    return caa


def publish(mediator, value, subject="bob", type_name="location"):
    event = ContextEvent(TypeSpec(type_name, "topological", subject),
                         value, mediator.guid, mediator.now)
    return mediator.publish(event)


class TestReliableDelivery:
    def test_sequenced_and_acked(self, network, mediator, app):
        mediator.add_subscription(app.guid, TypeFilter("location"))
        for index in range(3):
            publish(mediator, f"L10.0{index}")
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == ["L10.00", "L10.01", "L10.02"]
        # every delivery was acked: nothing left in flight, none exhausted
        assert mediator.unacked() == 0
        assert mediator.deliveries_exhausted == 0

    def test_exactly_once_under_loss(self, network, mediator, app):
        # A bounded loss episode forces retransmission on delivery, ack or
        # both; the app must still see every event exactly once, in order.
        mediator.add_subscription(app.guid, TypeFilter("location"))
        FaultInjector(network, seed=5).loss_episode(0.6, duration=20.0)
        values = [f"room-{index}" for index in range(12)]
        for value in values:
            publish(mediator, value)
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == values
        retransmits = network.obs.metrics.counter(
            "net.retry.attempts").value(kind="event")
        assert retransmits >= 1
        assert mediator.deliveries_exhausted == 0


class TestSharedMessages:
    def test_event_payload_is_event_and_subs(self, network, guids):
        inbox = []
        sink = FunctionProcess(guids.mint(), "host-b", network, inbox.append)
        mediator = EventMediator(guids.mint(), "host-a", network, "shape")
        first = mediator.add_subscription(sink.guid, TypeFilter("location"))
        second = mediator.add_subscription(sink.guid, SubjectFilter("bob"))
        publish(mediator, "L1")                       # both subscriptions
        publish(mediator, "L2", subject="john")       # the first only
        mediator.add_subscription(sink.guid, TypeFilter("location"))  # replay
        network.scheduler.run_for(1.5)
        events = [m.payload for m in inbox if m.kind == "event"]
        assert [set(payload) for payload in events] == [{"event", "subs"}] * 4
        assert [payload["subs"] for payload in events[:2]] == [
            [[first.sub_id, 1], [second.sub_id, 1]],
            [[first.sub_id, 2]]]
        assert len(events[2]["subs"]) == len(events[3]["subs"]) == 1

    def test_retransmission_sends_a_shared_payload_once(self, network,
                                                        guids, mediator):
        # a subscriber that never acks: every round resends its window
        inbox = []
        sink = FunctionProcess(guids.mint(), "host-b", network, inbox.append)
        mediator.add_subscription(sink.guid, TypeFilter("location"))
        mediator.add_subscription(sink.guid, TypeFilter("location"))
        mediator.add_subscription(sink.guid, SubjectFilter("bob"))
        publish(mediator, "L1")                       # three entries
        publish(mediator, "L2", subject="john")       # two entries
        attempts = network.obs.metrics.counter("net.retry.attempts")
        network.scheduler.run_for(2.0)
        assert network.stats.by_kind["event"] == 2
        assert mediator.unacked(sink.guid) == 5
        network.scheduler.run_for(mediator_module.DEFAULT_ACK_TIMEOUT)  # one round
        assert network.stats.by_kind["event"] == 4
        assert attempts.value(kind="event") == 5
        resent = [m.payload for m in inbox[2:]]
        assert [len(payload["subs"]) for payload in resent] == [3, 2]


class TestResync:
    def test_resync_replays_retained(self, network, mediator, app):
        sub = mediator.add_subscription(app.guid, TypeFilter("location"),
                                        replay_retained=False)
        publish(mediator, "L10.01")
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == ["L10.01"]
        # forge a hole: the app thinks seq 3 arrived but 2 never will
        # (as if the mediator's whole budget for seq 2 expired)
        app.streams.offer((mediator.guid.value, sub.sub_id), 3, app.events[0])
        network.scheduler.run_for(DEFAULT_RESYNC_AFTER + 30.0)
        assert mediator.resyncs_served == 1
        # the retained event was replayed under a fresh seq and consumed
        assert len(app.events) >= 2
        assert app.streams.open_holes((mediator.guid.value, sub.sub_id)) == 0

    def test_resync_unknown_sub_forgets_stream(self, network, mediator, app):
        app.streams.offer((mediator.guid.value, 999), 2, None)
        network.scheduler.run_for(DEFAULT_RESYNC_AFTER + 30.0)
        assert app.streams.open_holes((mediator.guid.value, 999)) == 0
        assert app.streams.last_seq((mediator.guid.value, 999)) == 0

    def test_crash_resets_streams(self, network, mediator, app):
        sub = mediator.add_subscription(app.guid, TypeFilter("location"))
        publish(mediator, "L1")
        network.scheduler.run_until_idle()
        assert app.streams.last_seq((mediator.guid.value, sub.sub_id)) == 1
        app.crash()
        assert app.streams.last_seq((mediator.guid.value, sub.sub_id)) == 0
