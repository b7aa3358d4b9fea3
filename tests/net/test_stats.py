"""Traffic statistics: the registry-backed :class:`MessageStats` facade."""

from repro.net.stats import MessageStats
from repro.net.transport import FixedLatency, FunctionProcess, Network
from repro.obs.metrics import MetricsRegistry


def fresh_stats():
    return MessageStats(MetricsRegistry())


def endpoints(net):
    """A sender on host ``a`` and a silent receiver on host ``b``."""
    net.add_host("a")
    net.add_host("b")
    sender = FunctionProcess(net.guids.mint(), "a", net, lambda message: None)
    receiver = FunctionProcess(net.guids.mint(), "b", net,
                               lambda message: None)
    return sender, receiver


class TestMessageStats:
    def test_reset_clears_everything(self):
        stats = fresh_stats()
        stats.sent_series["x"].inc()
        stats.delivered_series["a"].inc()
        stats.record_drop()
        stats.reset()
        assert stats.sent == stats.delivered == stats.dropped == 0
        assert not stats.host_load


class TestBoundedLatencyMemory:
    """The facade keeps no samples of its own: every count lives in a
    registry series, under the registry's cardinality cap."""

    def test_shared_registry_series_are_visible(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry)
        stats.sent_series["query"].inc()
        stats.delivered_series["host-a"].inc()
        assert registry.get("net.messages.sent").value(kind="query") == 1
        delivered = registry.get("net.messages.delivered")
        assert delivered.value(host="host-a") == 1


class TestMidRunReads:
    def test_a_callback_reads_every_count_so_far(self):
        """Five sends and five deliveries earlier in the same ``run_*`` call
        are visible to a later callback, through the facade and through the
        registry alike."""
        net = Network(latency_model=FixedLatency(1.0))
        sender, receiver = endpoints(net)
        seen = {}

        def burst():
            for _ in range(5):
                sender.send(receiver.guid, "ping")

        def read():
            stats = net.stats
            seen.update(
                sent=stats.sent, delivered=stats.delivered,
                by_kind=dict(stats.by_kind), host_load=dict(stats.host_load),
                registry_sent=net.obs.metrics.get("net.messages.sent").total())

        net.scheduler.schedule(0.5, burst)
        net.scheduler.schedule(2.0, read)
        net.run_until_idle()
        assert seen == {"sent": 5, "delivered": 5, "by_kind": {"ping": 5},
                        "host_load": {"b": 5}, "registry_sent": 5}
