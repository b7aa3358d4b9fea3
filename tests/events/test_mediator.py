"""Event Mediator: subscriptions, one-time mode, retained replay, bridging."""

import pytest

from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import SubjectFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.net.transport import FunctionProcess
from tests.events.sinks import acking_sink


@pytest.fixture
def mediator(network, guids):
    return EventMediator(guids.mint(), "host-a", network, "test-range")


@pytest.fixture
def subscriber(network, guids):
    return acking_sink(guids, network, name="subscriber")


def publish(mediator, type_name="location", subject="bob", value="L10.01",
            representation="topological"):
    event = ContextEvent(TypeSpec(type_name, representation, subject),
                         value, mediator.guid, mediator.now)
    return mediator.publish(event)


class TestSubscriptions:
    def test_matching_event_delivered(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"))
        publish(mediator)
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].kind == "event"
        assert inbox[0].payload["event"]["value"] == "L10.01"

    def test_non_matching_filtered(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("temperature"))
        publish(mediator)
        network.scheduler.run_until_idle()
        assert inbox == []

    def test_multiple_subscribers_each_get_copy(self, network, mediator, guids):
        inboxes = []
        for _ in range(3):
            process, inbox = acking_sink(guids, network)
            mediator.add_subscription(process.guid, TypeFilter("location"))
            inboxes.append(inbox)
        publish(mediator)
        network.scheduler.run_until_idle()
        assert all(len(inbox) == 1 for inbox in inboxes)

    def test_remove_subscription(self, network, mediator, subscriber):
        process, inbox = subscriber
        sub = mediator.add_subscription(process.guid, TypeFilter("location"))
        assert mediator.remove_subscription(sub.sub_id)
        publish(mediator)
        network.scheduler.run_until_idle()
        assert inbox == []

    def test_remove_by_owner(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  owner="cfg-1")
        mediator.add_subscription(process.guid, TypeFilter("temperature"),
                                  owner="cfg-1")
        assert mediator.remove_subscriptions_of("cfg-1") == 2
        assert mediator.subscription_count == 0

    def test_remove_subscriber(self, network, mediator, subscriber):
        process, _ = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"))
        assert mediator.remove_subscriber(process.guid) == 1


class TestOneTime:
    def test_one_time_cancelled_after_first(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  one_time=True)
        publish(mediator, value="first")
        publish(mediator, value="second")
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].payload["event"]["value"] == "first"
        assert mediator.subscription_count == 0


class TestRetainedReplay:
    def test_late_subscriber_gets_retained(self, network, mediator, subscriber):
        process, inbox = subscriber
        publish(mediator, value="before")
        mediator.add_subscription(process.guid, TypeFilter("location"))
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].payload["event"]["value"] == "before"

    def test_replay_can_be_disabled(self, network, mediator, subscriber):
        process, inbox = subscriber
        publish(mediator)
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  replay_retained=False)
        network.scheduler.run_until_idle()
        assert inbox == []

    def test_retained_keyed_by_type_repr_subject(self, network, mediator):
        publish(mediator, subject="bob", value="a")
        publish(mediator, subject="john", value="b")
        assert mediator.retained_event("location", "topological", "bob").value == "a"
        assert mediator.retained_event("location", "topological", "john").value == "b"

    def test_one_time_satisfied_by_replay(self, network, mediator, subscriber):
        process, inbox = subscriber
        publish(mediator, value="retained")
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  one_time=True)
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert mediator.subscription_count == 0


class TestMessageProtocol:
    def test_subscribe_via_message(self, network, mediator, subscriber, guids):
        process, inbox = subscriber
        acks = []
        requester = FunctionProcess(guids.mint(), "host-b", network, acks.append)
        requester.send(mediator.guid, "subscribe", {
            "subscriber": process.guid.hex,
            "filter": TypeFilter("location").to_spec(),
            "one_time": False,
        })
        network.scheduler.run_until_idle()
        assert acks[0].kind == "subscribe-ack"
        publish(mediator)
        network.scheduler.run_until_idle()
        assert len(inbox) == 1

    def test_publish_via_message(self, network, mediator, subscriber, guids):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"))
        publisher = FunctionProcess(guids.mint(), "host-b", network,
                                    lambda m: None)
        event = ContextEvent(TypeSpec("location", "topological", "bob"),
                             "L10.02", publisher.guid, 0.0)
        publisher.send(mediator.guid, "publish", {"event": event.to_wire()})
        network.scheduler.run_until_idle()
        assert inbox[0].payload["event"]["value"] == "L10.02"

    def test_unsubscribe_via_message(self, network, mediator, subscriber, guids):
        process, inbox = subscriber
        sub = mediator.add_subscription(process.guid, TypeFilter("location"))
        acks = []
        requester = FunctionProcess(guids.mint(), "host-b", network, acks.append)
        requester.send(mediator.guid, "unsubscribe", {"sub_id": sub.sub_id})
        network.scheduler.run_until_idle()
        assert acks[0].payload["removed"] is True

    def test_unsubscribe_owner_via_message(self, network, mediator, subscriber,
                                           guids):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  owner="q-1")
        mediator.add_subscription(process.guid, TypeFilter("presence"),
                                  owner="q-1")
        kept = mediator.add_subscription(process.guid, TypeFilter("location"),
                                         owner="q-2")
        acks = []
        requester = FunctionProcess(guids.mint(), "host-b", network, acks.append)
        requester.send(mediator.guid, "unsubscribe-owner", {"owner": "q-1"})
        network.scheduler.run_until_idle()
        assert [(ack.kind, ack.payload) for ack in acks] == \
            [("unsubscribe-owner-ack", {"removed": 2})]
        assert [sub.sub_id for sub in mediator.subscriptions()] == [kept.sub_id]
