"""Sharded Event Mediator: placement, routing, replay, rebalance invariants."""

import pytest

from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import (
    AndFilter,
    MatchAll,
    SubjectFilter,
    TypeFilter,
)
from repro.events.mediator import EventMediator
from repro.events.sharding import ShardedEventMediator
from repro.net.transport import FunctionProcess, Process


@pytest.fixture
def mediator(network, guids):
    return ShardedEventMediator(guids.mint(), "host-a", network,
                                "test-range", shards=3)


@pytest.fixture
def sink(network, guids):
    inbox = []
    process = FunctionProcess(guids.mint(), "host-b", network, inbox.append,
                              name="sink")
    return process, inbox


def exact(subject, type_name="location"):
    return AndFilter([TypeFilter(type_name), SubjectFilter(subject)])


def publish(mediator, type_name="location", subject="bob", value="L10.01",
            representation="topological"):
    event = ContextEvent(TypeSpec(type_name, representation, subject),
                         value, mediator.guid, mediator.now)
    return mediator.publish(event)


class TestPlacement:
    def test_exact_subscription_lives_on_owner_shard(self, mediator, sink):
        process, _ = sink
        sub = mediator.add_subscription(process.guid, exact("bob"))
        home = mediator.shard_id_for("location", "bob")
        assert [s.sub_id for s in mediator.shard(home).subscriptions()] \
            == [sub.sub_id]
        # the router itself holds no copy
        assert sub.sub_id not in [s.sub_id for s in mediator.subscriptions()]

    def test_routed_subscription_lives_on_router(self, mediator, sink):
        process, _ = sink
        sub = mediator.add_subscription(process.guid, TypeFilter("location"))
        assert sub.sub_id in [s.sub_id for s in mediator.subscriptions()]
        assert mediator.subscription_count == 1

    def test_stats_sum_router_and_shards(self, network, mediator, sink):
        process, _ = sink
        mediator.add_subscription(process.guid, exact("bob"))    # shard-homed
        mediator.add_subscription(process.guid, exact("bob"))    # look-alike
        mediator.add_subscription(process.guid, exact("john"))   # shard-homed
        mediator.add_subscription(process.guid, MatchAll())      # routed
        publish(mediator)
        network.scheduler.run_until_idle()
        index = mediator.index_stats()
        # three distinct filter roots: two exact on shards, one residual
        # on the router; the look-alike shares its twin's node
        assert index["indexed_subscriptions"] == 2
        assert index["residual_subscriptions"] == 1
        assert index["routed_subscriptions"] == 1
        graph = mediator.opgraph_stats()
        assert graph["attached"] == 4
        assert graph["nodes"] == 3
        assert graph["reuse_hits"] == 1
        assert graph["reuse_ratio"] == pytest.approx(0.25)
        metrics = network.obs.metrics
        assert metrics.counter("mediator.index.hits",
                               labels=("range",)).total() >= 1
        assert metrics.counter("mediator.index.residual_scans",
                               labels=("range",)).total() >= 1

    def test_exact_delivery_through_owner_shard(self, network, mediator, sink):
        process, inbox = sink
        mediator.add_subscription(process.guid, exact("bob"))
        publish(mediator, subject="bob")
        publish(mediator, subject="alice")
        network.scheduler.run_until_idle()
        assert [m.payload["event"]["value"] for m in inbox] == ["L10.01"]

    def test_routed_delivery_exactly_once(self, network, mediator, sink):
        process, inbox = sink
        mediator.add_subscription(process.guid, TypeFilter("location"))
        mediator.add_subscription(process.guid, exact("bob"))
        publish(mediator, subject="bob")
        network.scheduler.run_until_idle()
        # one copy per subscription: the routed monitor and the exact tracker
        assert len(inbox) == 2
        sub_ids = sorted(m.payload["sub_id"] for m in inbox)
        assert len(set(sub_ids)) == 2

    def test_one_time_routed_consumed_once(self, network, mediator, sink):
        process, inbox = sink
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  one_time=True)
        publish(mediator, subject="bob")
        publish(mediator, subject="alice")
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert mediator.subscription_count == 0

    def test_match_all_goes_residual_and_sees_everything(self, network,
                                                         mediator, sink):
        process, inbox = sink
        mediator.add_subscription(process.guid, MatchAll())
        publish(mediator, type_name="location", subject="bob")
        publish(mediator, type_name="temperature", subject="room-1",
                value=21.5)
        network.scheduler.run_until_idle()
        assert len(inbox) == 2


class TestRetained:
    def test_retained_event_served_from_owner_shard(self, network, mediator):
        publish(mediator, subject="bob", value="L1")
        publish(mediator, subject="bob", value="L2")
        network.scheduler.run_until_idle()
        event = mediator.retained_event("location", "topological", "bob")
        assert event is not None and event.value == "L2"
        assert mediator.retained_count == 1

    def test_replay_merges_shards_in_publish_order(self, network, mediator,
                                                   sink):
        process, inbox = sink
        for i in range(8):
            publish(mediator, subject=f"e{i}", value=f"v{i}")
        network.scheduler.run_until_idle()
        # late joiner on the router: replay must cross all shards in the
        # order a single mediator would have retained the events
        mediator.add_subscription(process.guid, TypeFilter("location"))
        network.scheduler.run_until_idle()
        assert [m.payload["event"]["value"] for m in inbox] \
            == [f"v{i}" for i in range(8)]

    def test_exact_late_joiner_replays_from_shard(self, network, mediator,
                                                  sink):
        process, inbox = sink
        publish(mediator, subject="bob", value="L7")
        network.scheduler.run_until_idle()
        mediator.add_subscription(process.guid, exact("bob"))
        network.scheduler.run_until_idle()
        assert [m.payload["event"]["value"] for m in inbox] == ["L7"]


class TestTeardown:
    def test_remove_subscriber_spans_shards(self, network, mediator, sink):
        process, inbox = sink
        mediator.add_subscription(process.guid, exact("bob"))
        mediator.add_subscription(process.guid, TypeFilter("location"))
        assert mediator.remove_subscriber(process.guid) == 2
        assert mediator.subscription_count == 0
        publish(mediator, subject="bob")
        network.scheduler.run_until_idle()
        assert inbox == []

    def test_remove_by_owner_spans_shards(self, mediator, sink):
        process, _ = sink
        mediator.add_subscription(process.guid, exact("bob"), owner="cfg-1")
        mediator.add_subscription(process.guid, TypeFilter("temperature"),
                                  owner="cfg-1")
        assert mediator.remove_subscriptions_of("cfg-1") == 2
        assert mediator.subscription_count == 0

    def test_consumed_one_time_subscriptions_leave_nothing_on_the_router(
            self, network, mediator, sink):
        # a shard-homed one-time subscription is consumed on its shard,
        # where the router never sees it go: the router must keep no
        # per-subscription record that only an explicit removal clears
        process, inbox = sink

        def table_sizes():
            return {name: len(value) for name, value in vars(mediator).items()
                    if isinstance(value, (dict, list, set))}

        def cycle(subject):
            mediator.add_subscription(process.guid, exact(subject),
                                      one_time=True)
            publish(mediator, subject=subject)
            network.scheduler.run_until_idle()

        cycle("warm-up")
        baseline = table_sizes()
        for i in range(50):
            cycle(f"person-{i}")
        assert len(inbox) == 51
        assert mediator.subscription_count == 0
        assert table_sizes() == baseline


class TestRebalance:
    def test_add_shard_preserves_every_subscription(self, network, mediator,
                                                    sink):
        process, inbox = sink
        subs = [mediator.add_subscription(process.guid, exact(f"e{i}"))
                for i in range(30)]
        before_ids = sorted(sub.sub_id for sub in subs)
        mediator.add_shard()
        after_ids = sorted(
            sub.sub_id
            for shard_id in mediator.shard_ids()
            for sub in mediator.shard(shard_id).subscriptions())
        assert after_ids == before_ids  # no loss, no duplication
        for i in range(30):
            publish(mediator, subject=f"e{i}", value=f"v{i}")
        network.scheduler.run_until_idle()
        assert len(inbox) == 30

    def test_add_shard_migrates_retained(self, network, mediator):
        for i in range(20):
            publish(mediator, subject=f"e{i}", value=f"v{i}")
        network.scheduler.run_until_idle()
        mediator.add_shard()
        for i in range(20):
            event = mediator.retained_event("location", "topological", f"e{i}")
            assert event is not None and event.value == f"v{i}"
        moved = network.obs.metrics.counter(
            "cs.shard.moved_retained", labels=("range",)).total()
        assert moved > 0

    def test_remove_shard_drains_without_loss(self, network, mediator, sink):
        process, inbox = sink
        subs = [mediator.add_subscription(process.guid, exact(f"e{i}"))
                for i in range(30)]
        victim = mediator.shard_ids()[0]
        mediator.remove_shard(victim)
        assert victim not in mediator.shard_ids()
        after_ids = sorted(
            sub.sub_id
            for shard_id in mediator.shard_ids()
            for sub in mediator.shard(shard_id).subscriptions())
        assert after_ids == sorted(sub.sub_id for sub in subs)
        for i in range(30):
            publish(mediator, subject=f"e{i}")
        network.scheduler.run_until_idle()
        assert len(inbox) == 30

    def test_in_flight_publish_handed_off(self, network, mediator, sink):
        process, inbox = sink
        for i in range(30):
            mediator.add_subscription(process.guid, exact(f"e{i}"))
        # queue publishes to the CURRENT owners, then rebalance before the
        # network delivers them: stale shards must hand off, not misdeliver
        for i in range(30):
            publish(mediator, subject=f"e{i}")
        mediator.add_shard()
        network.scheduler.run_until_idle()
        assert len(inbox) == 30
        handoffs = network.obs.metrics.counter(
            "cs.shard.handoffs", labels=("range",)).total()
        assert handoffs > 0  # ~1/K of 30 keys moved; zero is astronomically unlikely

    def test_remove_last_shard_rejected(self, network, guids):
        mediator = ShardedEventMediator(guids.mint(), "host-a", network,
                                        "solo", shards=1)
        with pytest.raises(ValueError):
            mediator.remove_shard(mediator.shard_ids()[0])


class TestBridges:
    def test_bridge_forwards_and_suppresses_loop(self, network, guids):
        mediator = ShardedEventMediator(guids.mint(), "host-a", network,
                                        "range-a", shards=2)
        peer = EventMediator(guids.mint(), "host-b", network, "range-b")
        mediator.add_bridge(peer.guid, TypeFilter("location"))
        peer.add_bridge(mediator.guid, TypeFilter("location"))
        publish(mediator, subject="bob")
        network.scheduler.run_until_idle()
        assert peer.published == 1  # arrived bridged at the peer
        # the bridged marker stopped the peer re-bridging it back to us:
        # our own mediator saw exactly the original publish
        assert mediator.published == 1


class _AckSink(Process):
    """Subscriber that acks reliable deliveries, like a real entity."""

    def __init__(self, guid, host_id, network):
        super().__init__(guid, host_id, network, name="ack-sink")
        self.events = []

    def on_message(self, message):
        if message.kind == "event":
            self.events.append(message.payload)
            self.reply(message, "event-ack",
                       {"sub_id": message.payload.get("sub_id")})


class TestReliable:
    def test_reliable_sharded_delivery_acked(self, network, guids):
        mediator = ShardedEventMediator(guids.mint(), "host-a", network,
                                        "rel-range", shards=2, reliable=True)
        sink = _AckSink(guids.mint(), "host-b", network)
        mediator.add_subscription(sink.guid, exact("bob"))
        mediator.add_subscription(sink.guid, TypeFilter("location"))
        publish(mediator, subject="bob")
        network.scheduler.run_until_idle()
        assert len(sink.events) == 2
        assert all(payload.get("seq") == 1 for payload in sink.events)
        shard = mediator.shard(mediator.shard_id_for("location", "bob"))
        assert shard.deliveries_exhausted == 0
        assert mediator.deliveries_exhausted == 0
