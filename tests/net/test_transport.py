"""Transport semantics: delivery, latency models, loss, partitions, hosts."""

import pytest

from repro.core.errors import TransportError
from repro.core.ids import GuidFactory
from repro.net.message import BROADCAST, Message
from repro.net.transport import (
    CampusLatency,
    DistanceLatency,
    FixedLatency,
    FunctionProcess,
    Host,
    Network,
    UniformLatency,
)
from repro.obs.tracing import SPAN_KEY, TRACE_KEY


def make_pair(net, guids, host_a="host-a", host_b="host-b"):
    inbox_a, inbox_b = [], []
    a = FunctionProcess(guids.mint(), host_a, net, inbox_a.append, name="a")
    b = FunctionProcess(guids.mint(), host_b, net, inbox_b.append, name="b")
    return a, b, inbox_a, inbox_b


class TestDelivery:
    def test_point_to_point(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        a.send(b.guid, "ping", {"n": 1})
        network.scheduler.run_until_idle()
        assert len(inbox_b) == 1
        assert inbox_b[0].kind == "ping"
        assert inbox_b[0].payload == {"n": 1}

    def test_latency_applied(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        a.send(b.guid, "ping")
        assert inbox_b == []  # not synchronous
        network.scheduler.run_until_idle()
        assert network.scheduler.now == pytest.approx(1.0)

    def test_reply_correlation(self, network, guids):
        a, b, inbox_a, _ = make_pair(network, guids)
        original = a.send(b.guid, "ask")
        network.scheduler.run_until_idle()
        b.reply(original, "answer", {"ok": True})
        network.scheduler.run_until_idle()
        assert inbox_a[0].reply_to == original.msg_id

    def test_unknown_recipient_counted(self, network, guids):
        a, _, _, _ = make_pair(network, guids)
        a.send(guids.mint(), "void")
        network.scheduler.run_until_idle()
        assert network.stats.undeliverable == 1

    def test_detached_sender_cannot_transmit(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        a.detach()
        a.send(b.guid, "ghost")
        network.scheduler.run_until_idle()
        assert inbox_b == []
        assert network.stats.dropped == 1

    def test_detached_recipient_mid_flight(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        a.send(b.guid, "ping")
        b.detach()
        network.scheduler.run_until_idle()
        assert inbox_b == []

    def test_broadcast_reaches_same_host_only(self, network, guids):
        class Listener(FunctionProcess):
            listens_for = ("announce",)

        sender = FunctionProcess(guids.mint(), "host-a", network,
                                 lambda m: None, name="sender")
        local, bystander, remote = [], [], []
        Listener(guids.mint(), "host-a", network, local.append)
        FunctionProcess(guids.mint(), "host-a", network, bystander.append)
        Listener(guids.mint(), "host-b", network, remote.append)
        sender.send(BROADCAST, "announce")
        network.scheduler.run_until_idle()
        assert len(local) == 1
        assert bystander == []  # same machine, declared nothing
        assert remote == []

    def test_send_stamps_an_unstamped_message_with_the_senders_span(
            self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        tracer = network.obs.tracer
        a.send(b.guid, "untraced")
        own = {TRACE_KEY: "t-own", SPAN_KEY: "s-own"}
        with tracer.span("outer"):
            a.send(b.guid, "stamped")
            ambient = tracer.current_context()
            network.send(Message(a.guid, b.guid, "kept", msg_id=99,
                                 trace=dict(own)))
        network.scheduler.run_until_idle()
        assert ambient is not None
        assert [(m.kind, m.trace) for m in inbox_b] == [
            ("untraced", None), ("stamped", ambient), ("kept", own)]

    def test_stats_by_kind(self, network, guids):
        a, b, _, _ = make_pair(network, guids)
        a.send(b.guid, "ping")
        a.send(b.guid, "ping")
        a.send(b.guid, "pong")
        network.scheduler.run_until_idle()
        assert network.stats.by_kind["ping"] == 2
        assert network.stats.by_kind["pong"] == 1


class TestFailureModel:
    def test_drop_rate_loses_messages(self, guids):
        net = Network(latency_model=FixedLatency(1.0), drop_rate=0.5, seed=1)
        net.add_host("host-a")
        net.add_host("host-b")
        a, b, _, inbox_b = make_pair(net, guids)
        for _ in range(200):
            a.send(b.guid, "ping")
        net.scheduler.run_until_idle()
        assert 0 < len(inbox_b) < 200
        assert net.stats.dropped == 200 - len(inbox_b)

    def test_partition_blocks_cross_traffic(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        network.set_partitions([["host-a"], ["host-b"]])
        a.send(b.guid, "ping")
        network.scheduler.run_until_idle()
        assert inbox_b == []

    def test_heal_restores_traffic(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        network.set_partitions([["host-a"], ["host-b"]])
        network.heal_partitions()
        a.send(b.guid, "ping")
        network.scheduler.run_until_idle()
        assert len(inbox_b) == 1

    def test_same_partition_unaffected(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids, host_b="host-a")
        network.set_partitions([["host-a"], ["host-b"]])
        a.send(b.guid, "ping")
        network.scheduler.run_until_idle()
        assert len(inbox_b) == 1

    def test_downed_host_drops_traffic(self, network, guids):
        a, b, _, inbox_b = make_pair(network, guids)
        network.fail_host("host-b")
        a.send(b.guid, "ping")
        network.scheduler.run_until_idle()
        assert inbox_b == []
        network.restore_host("host-b")
        a.send(b.guid, "ping")
        network.scheduler.run_until_idle()
        assert len(inbox_b) == 1

    def test_invalid_drop_rate_rejected(self):
        with pytest.raises(ValueError):
            Network(drop_rate=1.0)


class TestHosts:
    def test_duplicate_host_rejected(self, network):
        with pytest.raises(TransportError):
            network.add_host("host-a")

    def test_ensure_host_idempotent(self, network):
        first = network.ensure_host("host-a")
        assert network.ensure_host("host-a") is first

    def test_unknown_host_rejected_for_process(self, network, guids):
        with pytest.raises(TransportError):
            FunctionProcess(guids.mint(), "missing", network, lambda m: None)

    def test_duplicate_guid_rejected(self, network, guids):
        guid = guids.mint()
        FunctionProcess(guid, "host-a", network, lambda m: None)
        with pytest.raises(TransportError):
            FunctionProcess(guid, "host-a", network, lambda m: None)

    def test_processes_on_host(self, network, guids):
        a = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        FunctionProcess(guids.mint(), "host-b", network, lambda m: None)
        assert network.processes_on("host-a") == [a]

    def test_detach_removes_from_host_index(self, network, guids):
        a = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        b = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        a.detach()
        assert network.processes_on("host-a") == [b]
        b.detach()
        assert network.processes_on("host-a") == []


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(2.5)
        assert model.latency(Host("x"), Host("y"), None) == 2.5

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_fixed_accepts_zero_and_refuses_just_below(self):
        assert FixedLatency(0).latency(Host("x"), Host("y"), None) == 0
        with pytest.raises(ValueError):
            FixedLatency(-0.1)

    @pytest.mark.parametrize("low, high", [(1.0, 1.0), (0, 1.0), (0, 0)])
    def test_uniform_accepts_closed_bounds(self, low, high):
        model = UniformLatency(low, high)
        assert (model.low, model.high) == (low, high)

    @pytest.mark.parametrize("low, high", [(2.0, 1.0), (-0.5, 1.0)])
    def test_uniform_refuses_inverted_or_negative_bounds(self, low, high):
        with pytest.raises(ValueError):
            UniformLatency(low, high)

    def test_uniform_within_bounds(self):
        import random
        model = UniformLatency(1.0, 2.0)
        rng = random.Random(0)
        for _ in range(100):
            assert 1.0 <= model.latency(Host("x"), Host("y"), rng) < 2.0

    def test_distance_uses_positions(self):
        model = DistanceLatency(base=1.0, per_unit=0.1)
        a = Host("a", position=(0.0, 0.0))
        b = Host("b", position=(3.0, 4.0))
        assert model.latency(a, b, None) == pytest.approx(1.5)

    def test_distance_without_positions_is_base(self):
        model = DistanceLatency(base=1.0)
        assert model.latency(Host("a"), Host("b"), None) == 1.0

    def test_campus_local_cheaper_than_remote(self):
        import random
        model = CampusLatency(local=0.05, remote=1.0, jitter=0.0)
        rng = random.Random(0)
        same = model.latency(Host("a"), Host("a"), rng)
        cross = model.latency(Host("a"), Host("b"), rng)
        assert same < cross
