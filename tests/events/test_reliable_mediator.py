"""Reliable mediator mode: sequenced acked delivery, retransmission, resync."""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.events.filters import TypeFilter
from repro.events.mediator import EventMediator
from repro.faults.injector import FaultInjector


@pytest.fixture
def mediator(network, guids):
    return EventMediator(guids.mint(), "host-a", network, "test-range",
                         reliable=True, ack_timeout=4.0, delivery_retries=6)


@pytest.fixture
def app(network, guids, mediator):
    caa = ContextAwareApplication(
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
            "net.retry.attempts", labels=("kind",)).value(kind="event")
        assert retransmits >= 1
        assert mediator.deliveries_exhausted == 0

    def test_unreliable_mode_unchanged(self, network, guids, app):
        plain = EventMediator(guids.mint(), "host-a", network, "plain")
        plain.add_subscription(app.guid, TypeFilter("location"))
        publish(plain, "L9")
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == ["L9"]
        # no sequencing: the app's reassembler passed it straight through
        assert app.streams.last_seq(1) == 0 or not app.streams._streams


class TestResync:
    def test_resync_replays_retained(self, network, mediator, app):
        sub = mediator.add_subscription(app.guid, TypeFilter("location"),
                                        replay_retained=False)
        publish(mediator, "L10.01")
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == ["L10.01"]
        # forge a hole: the app thinks seq 3 arrived but 2 never will
        # (as if the mediator's whole budget for seq 2 expired)
        app.streams.offer(sub.sub_id, 3, {"event": app.events[0].to_wire(),
                                          "sub_id": sub.sub_id, "seq": 3})
        network.scheduler.run_for(app.streams.resync_after + 30.0)
        assert mediator.resyncs_served == 1
        # the retained event was replayed under a fresh seq and consumed
        assert len(app.events) >= 2
        assert app.streams.open_holes(sub.sub_id) == 0

    def test_resync_unknown_sub_forgets_stream(self, network, mediator, app):
        app.streams.offer(999, 2, {"event": None, "sub_id": 999, "seq": 2})
        network.scheduler.run_for(app.streams.resync_after + 30.0)
        assert app.streams.open_holes(999) == 0
        assert app.streams.last_seq(999) == 0

    def test_crash_resets_streams(self, network, mediator, app):
        sub = mediator.add_subscription(app.guid, TypeFilter("location"))
        publish(mediator, "L1")
        network.scheduler.run_until_idle()
        assert app.streams.last_seq(sub.sub_id) == 1
        app.crash()
        assert app.streams.last_seq(sub.sub_id) == 0
