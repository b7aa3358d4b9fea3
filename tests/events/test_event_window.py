"""Acknowledged delivery through per-subscriber windows and cumulative acks.

A mediator sends each delivery once and keeps it in its
subscriber's unacked window; the subscriber answers with one cumulative
``event-ack`` per batch. These tests pin the batching, loss masking, the
budget, the bound and the teardown rules of that exchange.
"""

import inspect
import math

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.core.ids import GUID, GuidFactory
from repro.core.types import TypeSpec
from repro.entities.entity import BaseComponent
from repro.entities.profile import EntityClass, Profile
from repro.events import mediator as mediator_module
from repro.events.event import ContextEvent
from repro.events.filters import TypeFilter
from repro.events.mediator import (DELIVERY_BACKOFF, DELIVERY_JITTER,
                                   EventMediator)
from repro.events.stream import (EVENT_ACK_DELAY, EVENT_ACK_EVERY,
                                 StreamReassembler)
from repro.faults.injector import FaultInjector
from repro.location.service import LocationService
from repro.net.transport import FixedLatency, FunctionProcess, Network
from tests.recording import RecordingApp

ACK_TIMEOUT = 4.0
RETRIES = 6


@pytest.fixture(autouse=True)
def _window_timing(monkeypatch):
    """Every mediator of this module waits ACK_TIMEOUT for a first ack and
    retransmits RETRIES rounds."""
    monkeypatch.setattr(mediator_module, "DEFAULT_ACK_TIMEOUT", ACK_TIMEOUT)
    monkeypatch.setattr(mediator_module, "DEFAULT_DELIVERY_RETRIES", RETRIES)


@pytest.fixture
def mediator(network, guids):
    return EventMediator(guids.mint(), "host-a", network, "window-range")


def make_app(network, guids, mediator, name="app"):
    app = RecordingApp(
        Profile(guids.mint(), name, entity_class=EntityClass.SOFTWARE),
        "host-b", network)
    # the dummy registrar GUID names nobody: a deregister goes nowhere
    app.attach_to_range(guids.mint(), mediator.guid, mediator.guid,
                        "window-range")
    return app


@pytest.fixture
def app(network, guids, mediator):
    return make_app(network, guids, mediator)


def publish(mediator, value, type_name="tick", subject="s"):
    event = ContextEvent(TypeSpec(type_name, "raw", subject), value,
                         mediator.guid, mediator.now)
    return mediator.publish(event)


def counter(network, name, **labels):
    metric = network.obs.metrics.get(name)
    if metric is None:
        return 0.0
    return metric.value(**labels) if labels else metric.total()


def acks_sent(network):
    return network.stats.by_kind.get("event-ack", 0)


def record_acks(mediator):
    """Wrap the mediator's ack handler; the list of payloads it saw."""
    seen = []
    handle = mediator._handle_event_ack

    def recording(message):
        seen.append(message.payload)
        handle(message)

    mediator._handle_event_ack = recording
    return seen


class TestBatching:
    @pytest.mark.parametrize("count", [1, EVENT_ACK_EVERY,
                                       EVENT_ACK_EVERY + 1, 70])
    def test_one_ack_per_batch_of_in_order_deliveries(self, network,
                                                       mediator, app, count):
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        for value in range(count):  # one instant: one ack delay covers all
            publish(mediator, value)
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == list(range(count))
        assert acks_sent(network) == math.ceil(count / EVENT_ACK_EVERY)
        assert mediator.unacked() == 0
        assert counter(network, "net.retry.attempts", kind="event") == 0

    def test_two_subscriptions_share_one_ack(self, network, mediator, app):
        first = mediator.add_subscription(app.guid, TypeFilter("tick"))
        second = mediator.add_subscription(app.guid, TypeFilter("tock"))
        seen = record_acks(mediator)
        publish(mediator, 1, "tick")
        publish(mediator, 2, "tock")
        publish(mediator, 3, "tick")
        network.scheduler.run_until_idle()
        assert seen == [{"acks": [[first.sub_id, 2], [second.sub_id, 1]]}]
        assert mediator.unacked() == 0

    def test_ack_leaves_within_the_delay(self, network, mediator, app):
        """Delay plus a round trip stays under the ack timeout, so a quiet
        stream is never retransmitted."""
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        for value in range(5):
            publish(mediator, value)
            network.scheduler.run_for(3.0)  # one event per ack delay and more
        network.scheduler.run_until_idle()
        assert acks_sent(network) == 5
        assert counter(network, "net.retry.attempts", kind="event") == 0
        assert EVENT_ACK_DELAY + 2 * 1.0 < ACK_TIMEOUT


class TestKeys:
    def test_a_delivery_round_hashes_no_guid(self, network, guids, mediator,
                                             monkeypatch):
        """Windows, reverse maps, the per-publish payload map and the
        subscriber's due acks are keyed by ``guid.value``: a round of
        publishes, deliveries and acks calls no ``GUID.__hash__``."""
        apps = [make_app(network, guids, mediator, name) for name in "ab"]
        subscriptions = [mediator.add_subscription(app.guid, TypeFilter("tick"))
                         for app in apps for _ in range(2)]
        network.scheduler.run_until_idle()
        hashed = []
        real = GUID.__hash__
        monkeypatch.setattr(GUID, "__hash__",
                            lambda guid: hashed.append(guid) or real(guid))
        for value in range(EVENT_ACK_EVERY + 3):
            publish(mediator, value)
        assert mediator.unacked(GUID(apps[0].guid.value)) == \
            2 * (EVENT_ACK_EVERY + 3)
        network.scheduler.run_until_idle()
        assert hashed == []
        assert [len(app.events) for app in apps] == \
            [2 * (EVENT_ACK_EVERY + 3)] * 2
        assert mediator.unacked() == 0
        assert [s.sub_id for s in mediator.subscriptions_for(
            GUID(apps[1].guid.value))] == [s.sub_id for s in subscriptions[2:]]
        assert mediator.remove_subscriber(apps[0].guid) == 2
        assert mediator.subscription_count == 2


def two_subscriber_run(loss_rate):
    """Two apps with two subscriptions each, fed 30 events; the network,
    the mediator and each app's log per subscription stream."""
    network = Network(latency_model=FixedLatency(1.0), seed=42)
    network.add_host("host-a")
    network.add_host("host-b")
    ids = GuidFactory(seed=7)
    mediator = EventMediator(ids.mint(), "host-a", network, "r")
    apps = [make_app(network, ids, mediator, name) for name in ("a", "b")]
    for app in apps:
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        mediator.add_subscription(app.guid, TypeFilter("tock"))
    if loss_rate:
        FaultInjector(network, seed=3).loss_episode(loss_rate, duration=25.0)
    for n in range(30):
        publish(mediator, n, "tick" if n % 3 else "tock", f"s{n % 4}")
        network.scheduler.run_for(0.7)
    network.scheduler.run_until_idle()
    logs = [{kind: [e.value for e in app.events if e.type_name == kind]
             for kind in ("tick", "tock")} for app in apps]
    return network, mediator, logs


class TestLossMasking:
    def test_lossy_log_equals_lossless_log(self):
        _, _, lossless = two_subscriber_run(0.0)
        network, mediator, lossy = two_subscriber_run(0.5)
        assert lossy == lossless
        assert counter(network, "net.retry.attempts", kind="event") > 0
        assert mediator.unacked() == 0
        assert mediator.deliveries_exhausted == 0


class TestOneTime:
    def test_lost_first_copy_retransmitted_after_the_drop(self, network,
                                                         mediator, app):
        sub = mediator.add_subscription(app.guid, TypeFilter("tick"),
                                        one_time=True)
        network.fail_host("host-b")  # the first copy is lost on the wire
        publish(mediator, "once")
        network.restore_host("host-b")
        assert not mediator.has_subscription(sub.sub_id)  # consumed
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == ["once"]
        assert counter(network, "net.retry.attempts", kind="event") == 1
        assert counter(network, "net.retry.recovered", kind="event") == 1
        assert mediator.unacked() == 0


class TestBudget:
    def test_crashed_subscriber_exhausts_each_entry_once(self, network,
                                                         mediator, app):
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        app.crash()
        start = network.scheduler.now
        for value in range(3):
            publish(mediator, value)
        network.scheduler.run_for(5.0)
        for value in range(3, 5):  # joins the window mid-budget
            publish(mediator, value)
        # every wait is at least ack_timeout · 1.5^k, and at most that
        # stretched by the jitter
        waits = [ACK_TIMEOUT * DELIVERY_BACKOFF ** k
                 for k in range(RETRIES + 1)]
        earliest = start + sum(waits)
        latest = start + waits[0] + (1 + DELIVERY_JITTER) * sum(waits[1:])
        network.scheduler.run_until(earliest - 0.01)
        assert mediator.deliveries_exhausted == 0
        assert mediator.unacked() == 5
        network.scheduler.run_until(latest)
        assert mediator.deliveries_exhausted == 5
        assert mediator.unacked() == 0
        network.scheduler.run_until_idle()
        assert mediator.deliveries_exhausted == 5
        assert counter(network, "mediator.seq.ack_exhausted") == 5
        assert counter(network, "net.retry.exhausted", kind="event") == 5
        # every round resent every entry then in the window
        assert counter(network, "net.retry.attempts", kind="event") == \
            3 * RETRIES + 2 * (RETRIES - 1)

    def test_ack_progress_resets_the_budget(self, network, mediator, app):
        """A lossy stream that outlives one whole budget is never given up
        while its acks make progress."""
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        FaultInjector(network, seed=1).loss_episode(0.3, duration=200.0)
        for value in range(100):
            publish(mediator, value)
            network.scheduler.run_for(2.0)
        network.scheduler.run_until_idle()
        assert [e.value for e in app.events] == list(range(100))
        assert counter(network, "net.retry.attempts", kind="event") > RETRIES
        assert mediator.deliveries_exhausted == 0


class TestWindowBound:
    def test_full_window_sheds_oldest_and_resync_heals(
            self, network, mediator, app, monkeypatch):
        monkeypatch.setattr(mediator_module, "WINDOW_CAP", 4)
        sub = mediator.add_subscription(app.guid, TypeFilter("tick"))
        network.fail_host("host-b")
        publish(mediator, "lost", subject="s0")  # seq 1 never arrives
        network.restore_host("host-b")
        for n in range(1, 5):  # the fifth entry overflows the window
            publish(mediator, f"v{n}", subject=f"s{n}")
        assert counter(network, "mediator.seq.window_shed") == 1
        assert mediator.unacked(app.guid) == 4
        network.scheduler.run_until_idle()
        # the hole at seq 1 outlived retransmission: resync replayed the
        # retained store, the shed event among it
        assert mediator.resyncs_served == 1
        assert "lost" in [e.value for e in app.events]
        key = (mediator.guid.value, sub.sub_id)
        assert app.streams.last_seq(key) > 0  # the stream is known
        assert app.streams.open_holes(key) == 0
        assert mediator.unacked() == 0
        assert mediator.deliveries_exhausted == 0


class TestTeardown:
    def test_stop_flushes_pending_acks(self, network, mediator, app):
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        for value in range(3):
            publish(mediator, value)
        network.scheduler.run_for(1.5)  # arrived, ack still pending
        assert acks_sent(network) == 0
        app.stop()
        network.scheduler.run_until_idle()
        assert acks_sent(network) == 1
        assert mediator.unacked() == 0
        assert mediator.deliveries_exhausted == 0

    def test_crash_drops_pending_acks(self, network, mediator, app):
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        publish(mediator, 1)
        network.scheduler.run_for(1.5)
        app.crash()
        network.scheduler.run_until_idle()
        assert acks_sent(network) == 0
        assert mediator.deliveries_exhausted == 1

    def test_handoff_mid_stream_exhausts_nothing(self):
        sci = SCI(config=SCIConfig(seed=5))
        sci.create_range("lobby", places=["lobby"], stations=["ap-lobby"])
        sci.create_range("level10", places=["L10"])
        sci.add_person("bob", room=None, device_host="bob-pda")
        app = sci.create_application("app:bob", host="bob-pda", owner="bob",
                                     app_class=RecordingApp)
        sci.start_boundary_monitor()
        sci.run(5)
        sci.teleport("bob", "lobby")
        sci.run(10)
        lobby = sci.range("lobby")
        assert app.range_name == "lobby"
        lobby.mediator.add_subscription(app.guid, TypeFilter("tick"))
        for n in range(60):
            if n == 30:
                sci.teleport("bob", "L10.01")
            publish(lobby.mediator, n)
            sci.run(0.3)
        sci.run(300)
        assert app.range_name == "level10"
        assert sci.handoff.handoffs >= 1
        received = [e.value for e in app.events]
        assert received == list(range(len(received)))  # in order, once
        assert lobby.mediator.deliveries_exhausted == 0
        assert lobby.mediator.unacked() == 0


class TestMalformedAcks:
    MALFORMED = [
        {},                                  # missing acks
        {"acks": "1,3"},                     # not a list
        {"acks": {"1": 3}},                  # not a list
        {"acks": [[[1], 3]]},                # unhashable sub_id
        {"acks": [["SUB", 3], [{"x": 1}, 3]]},  # one bad pair spoils all
        {"acks": [["SUB", None]]},           # upto not a number
        {"acks": [["SUB"]]},                 # not a pair
        {"acks": [5]},                       # not a pair
    ]

    @pytest.mark.parametrize("payload", MALFORMED)
    def test_malformed_ack_changes_nothing(self, network, guids, mediator,
                                           payload):
        sink = FunctionProcess(guids.mint(), "host-b", network,
                               lambda message: None)
        sub = mediator.add_subscription(sink.guid, TypeFilter("tick"))
        for value in range(3):
            publish(mediator, value)
        network.scheduler.run_for(1.5)
        payload = {key: _fill(value, sub.sub_id)
                   for key, value in payload.items()}
        sink.send(mediator.guid, "event-ack", payload)
        network.scheduler.run_for(1.5)  # well inside the ack timeout
        assert mediator.unacked(sink.guid) == 3
        sink.send(mediator.guid, "event-ack", {"acks": [[sub.sub_id, 3]]})
        network.scheduler.run_for(1.5)
        assert mediator.unacked(sink.guid) == 0


def _fill(value, sub_id):
    """Replace the ``"SUB"`` placeholder by a real subscription id."""
    if value == "SUB":
        return sub_id
    if isinstance(value, list):
        return [_fill(item, sub_id) for item in value]
    return value


class TestNoKnob:
    #: the constructors the window and the acks must not have widened
    PINNED = {
        EventMediator: ["guid", "host_id", "network", "range_name",
                        "ledger"],
        BaseComponent: ["profile", "host_id", "network"],
        LocationService: ["guid", "host_id", "network", "building",
                          "range_name"],
        StreamReassembler: ["scheduler", "deliver", "request_resync",
                            "metrics"],
    }

    @pytest.mark.parametrize("constructor", list(PINNED),
                             ids=lambda c: c.__name__)
    def test_constructor_parameters_unchanged(self, constructor):
        parameters = list(inspect.signature(constructor).parameters)
        assert parameters == self.PINNED[constructor]

    def test_event_path_makes_no_rpc(self, network, mediator, app):
        mediator.add_subscription(app.guid, TypeFilter("tick"))
        publish(mediator, 1)
        assert mediator.requests is None  # no RequestManager to make one with
        assert mediator.unacked() == 1
