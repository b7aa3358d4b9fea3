"""Traffic statistics: the registry-backed :class:`MessageStats` facade."""

import pytest

from repro.net.stats import MessageStats
from repro.net.transport import (FixedLatency, FunctionProcess, Network,
                                 UniformLatency)
from repro.obs.metrics import DEFAULT_RESERVOIR, MetricsRegistry


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
    def test_hotspot_ratio_balanced(self):
        stats = fresh_stats()
        for host in ("a", "b", "c"):
            stats.record_delivery(host, 1.0)
        assert stats.hotspot_ratio() == pytest.approx(1.0)

    def test_hotspot_ratio_skewed(self):
        stats = fresh_stats()
        for _ in range(9):
            stats.record_delivery("root", 1.0)
        stats.record_delivery("leaf", 1.0)
        assert stats.hotspot_ratio() == pytest.approx(9 / 5)

    def test_reset_clears_everything(self):
        stats = fresh_stats()
        stats.record_send("x")
        stats.record_delivery("a", 1.0)
        stats.record_drop()
        stats.reset()
        assert stats.sent == stats.delivered == stats.dropped == 0
        assert not stats.latencies and not stats.host_load

    def test_empty_ratios_are_zero(self):
        stats = fresh_stats()
        assert stats.hotspot_ratio() == 0.0
        assert stats.mean_host_load == 0.0


class TestBoundedLatencyMemory:
    def test_latencies_stay_flat_counts_stay_exact(self):
        """The old unbounded ``latencies`` list is now a reservoir: 100k
        observations keep at most the reservoir's worth of samples while the
        exact count, total and extremes survive."""
        stats = fresh_stats()
        n = 100_000
        for index in range(n):
            stats.record_delivery("host", float(index % 97))
        assert len(stats.latencies) == DEFAULT_RESERVOIR  # memory-flat
        assert stats.latency_count == n     # exact
        assert stats.delivered == n
        summary = stats.latency_summary()
        assert summary["count"] == n
        assert summary["min"] == 0.0
        assert summary["max"] == 96.0
        assert 0 <= summary["p50"] <= 96

    def test_small_runs_keep_every_sample(self):
        stats = fresh_stats()
        for value in (1.0, 2.0, 3.0):
            stats.record_delivery("h", value)
        assert sorted(stats.latencies) == [1.0, 2.0, 3.0]
        assert stats.latency_count == 3

    def test_shared_registry_series_are_visible(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry)
        stats.record_send("query")
        stats.record_delivery("host-a", 1.5)
        assert registry.get("net.messages.sent").value(kind="query") == 1
        assert "net.delivery.latency" in registry


class TestDeliveryLatency:
    def test_whole_run_sample_is_not_head_biased(self):
        """One run whose latency steps up halfway: every delivery is
        observed once, so the reservoir samples the whole run, not its
        first ``DEFAULT_RESERVOIR`` deliveries."""
        net = Network(latency_model=FixedLatency(1.0))
        sender, receiver = endpoints(net)
        for index in range(5000):
            if index == 2500:
                net.latency_model = FixedLatency(3.0)
            sender.send(receiver.guid, "ping")
        net.run_until_idle()
        stats = net.stats
        summary = stats.latency_summary()
        assert summary["p90"] == 3.0
        # the exact aggregates do not depend on the sample
        assert summary["count"] == stats.delivered == 5000
        assert summary["sum"] == 2500 * 1.0 + 2500 * 3.0
        assert (summary["min"], summary["max"]) == (1.0, 3.0)
        latency = net.obs.metrics.get("net.delivery.latency")
        assert latency.series().count == stats.delivered

    def test_latency_sample_is_reproducible(self):
        def sample():
            net = Network(latency_model=UniformLatency(), seed=4)
            sender, receiver = endpoints(net)
            for _ in range(3000):
                sender.send(receiver.guid, "ping")
            net.run_until_idle()
            return net.stats.latencies
        first = sample()
        assert len(first) == DEFAULT_RESERVOIR  # the reservoir replaced some
        assert first == sample()


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
                latency_count=stats.latency_count,
                registry_sent=net.obs.metrics.get("net.messages.sent").total())

        net.scheduler.schedule(0.5, burst)
        net.scheduler.schedule(2.0, read)
        net.run_until_idle()
        assert seen == {"sent": 5, "delivered": 5, "by_kind": {"ping": 5},
                        "host_load": {"b": 5}, "latency_count": 5,
                        "registry_sent": 5}
