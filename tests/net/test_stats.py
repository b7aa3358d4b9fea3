"""Traffic statistics and summary helpers."""

import pytest

from repro.net.stats import (StatsBuffer, MessageStats, percentile,
                             summarize)


class TestMessageStats:
    def test_hotspot_ratio_balanced(self):
        stats = MessageStats()
        for host in ("a", "b", "c"):
            stats.record_delivery(host, 1.0)
        assert stats.hotspot_ratio() == pytest.approx(1.0)

    def test_hotspot_ratio_skewed(self):
        stats = MessageStats()
        for _ in range(9):
            stats.record_delivery("root", 1.0)
        stats.record_delivery("leaf", 1.0)
        assert stats.hotspot_ratio() == pytest.approx(9 / 5)

    def test_reset_clears_everything(self):
        stats = MessageStats()
        stats.record_send("x")
        stats.record_delivery("a", 1.0)
        stats.record_drop()
        stats.reset()
        assert stats.sent == stats.delivered == stats.dropped == 0
        assert not stats.latencies and not stats.host_load

    def test_empty_ratios_are_zero(self):
        stats = MessageStats()
        assert stats.hotspot_ratio() == 0.0
        assert stats.mean_host_load == 0.0


class TestBoundedLatencyMemory:
    def test_latencies_stay_flat_counts_stay_exact(self):
        """The old unbounded ``latencies`` list is now a reservoir: 100k
        observations keep at most the reservoir's worth of samples while the
        exact count, total and extremes survive."""
        stats = MessageStats(latency_reservoir=512)
        n = 100_000
        for index in range(n):
            stats.record_delivery("host", float(index % 97))
        assert len(stats.latencies) == 512  # memory-flat
        assert stats.latency_count == n     # exact
        assert stats.delivered == n
        summary = stats.latency_summary()
        assert summary["count"] == n
        assert summary["min"] == 0.0
        assert summary["max"] == 96.0
        assert 0 <= summary["p50"] <= 96

    def test_small_runs_keep_every_sample(self):
        stats = MessageStats()
        for value in (1.0, 2.0, 3.0):
            stats.record_delivery("h", value)
        assert sorted(stats.latencies) == [1.0, 2.0, 3.0]
        assert stats.latency_count == 3

    def test_shared_registry_series_are_visible(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        stats = MessageStats(registry=registry)
        stats.record_send("query")
        stats.record_delivery("host-a", 1.5)
        assert registry.get("net.messages.sent").value(kind="query") == 1
        assert "net.delivery.latency" in registry


class TestLaneStaging:
    def test_flush_window_sample_is_not_head_biased(self):
        """One long flush window whose latency steps up halfway: the slice
        handed to the registry must represent the whole window, not its
        first ``sample_cap`` deliveries."""
        buffer = StatsBuffer(seed=1)
        for index in range(5000):
            buffer.record_delivery("host", 1.0 if index < 2500 else 3.0)
        stats = MessageStats()
        stats.merge_buffer(buffer)
        summary = stats.latency_summary()
        assert summary["p90"] == 3.0
        # the exact aggregates do not depend on the sample
        assert summary["count"] == stats.delivered == 5000
        assert summary["sum"] == pytest.approx(2500 * 1.0 + 2500 * 3.0)
        assert (summary["min"], summary["max"]) == (1.0, 3.0)
        assert buffer.empty and buffer.latency.count == 0

    def test_staged_sample_is_reproducible(self):
        def staged():
            buffer = StatsBuffer(seed=4)
            for index in range(3000):
                buffer.record_delivery("host", float(index % 89))
            return buffer.latency.samples
        assert staged() == staged()


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 0.5) == 2

    def test_p95_near_top(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.95) == 95

    def test_extremes(self):
        samples = [5, 1, 9]
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 1.0) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0

    def test_empty_summary(self):
        assert summarize([])["count"] == 0
