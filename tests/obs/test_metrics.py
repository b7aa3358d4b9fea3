"""Registry semantics: labels, cardinality, histogram quantiles, snapshots."""

import pytest

from repro.net.stats import MessageStats
from repro.obs.metrics import (
    OVERFLOW_KEY,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Reservoir,
)


class TestCounter:
    def test_inc_and_total(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.total() == 3.5

    def test_labelled_series(self):
        counter = Counter("c", labels=("kind",))
        counter.inc(kind="query")
        counter.inc(kind="query")
        counter.inc(kind="event")
        assert counter.value(kind="query") == 2
        assert counter.by_label() == {"query": 2, "event": 1}

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1)

    def test_missing_label_rejected(self):
        counter = Counter("c", labels=("kind",))
        with pytest.raises(MetricError):
            counter.inc()

    def test_unknown_label_rejected(self):
        counter = Counter("c", labels=("kind",))
        with pytest.raises(MetricError):
            counter.inc(kind="x", extra="y")

    def test_by_label_requires_single_label(self):
        with pytest.raises(MetricError):
            Counter("c", labels=("a", "b")).by_label()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12


class TestCardinality:
    def test_overflow_collapses_to_single_series(self):
        counter = Counter("c", labels=("id",), max_series=4)
        for index in range(10):
            counter.inc(id=f"msg-{index}")
        assert len(counter.items()) == 5  # 4 real + 1 overflow
        assert counter.items()[OVERFLOW_KEY] == 6
        assert counter.overflowed == 6
        assert counter.total() == 10  # nothing lost, only un-labelled

    def test_existing_series_still_updatable_after_overflow(self):
        counter = Counter("c", labels=("id",), max_series=2)
        counter.inc(id="a")
        counter.inc(id="b")
        counter.inc(id="c")  # overflow
        counter.inc(id="a")  # pre-existing: still its own series
        assert counter.value(id="a") == 2

    def test_histogram_overflow(self):
        hist = Histogram("h", labels=("id",), max_series=2, reservoir_size=8)
        for index in range(6):
            hist.observe(float(index), id=f"s{index}")
        assert hist.count == 6
        assert hist.overflowed == 4


class TestReadPathValidation:
    """Reads validate labels and respect the cap exactly like
    ``inc``/``observe``."""

    def test_counter_value_wrong_label_is_metric_error(self):
        counter = Counter("c", labels=("kind",))
        counter.inc(kind="query")
        with pytest.raises(MetricError):
            counter.value()
        with pytest.raises(MetricError):
            counter.value(host="a")
        with pytest.raises(MetricError):
            counter.value(kind="query", host="a")
        assert counter.value(kind="never-seen") == 0.0
        assert counter.overflowed == 0 and len(counter.items()) == 1

    def test_gauge_value_wrong_label_is_metric_error(self):
        gauge = Gauge("g", labels=("shard",))
        gauge.set(3, shard=1)
        with pytest.raises(MetricError):
            gauge.value()
        with pytest.raises(MetricError):
            gauge.value(lane=1)
        assert gauge.value(shard=1) == 3

    def test_histogram_series_wrong_label_is_metric_error(self):
        hist = Histogram("h", labels=("id",))
        with pytest.raises(MetricError):
            hist.series()
        with pytest.raises(MetricError):
            hist.series(host="a")
        assert hist.items() == {}

    def test_histogram_series_respects_the_cap(self):
        hist = Histogram("h", labels=("id",), max_series=2, reservoir_size=8)
        for index in range(6):
            hist.series(id=f"s{index}")
        assert len(hist.items()) == 3  # 2 real + 1 overflow
        assert hist.overflowed == 4
        assert hist.series(id="s5") is hist.items()[OVERFLOW_KEY]
        assert hist.series(id="s0") is hist.items()[("s0",)]


class TestCounterSeries:
    """``Counter.series`` binds once: labels are checked and the cap is
    applied at bind time, so the handle's ``inc`` does neither."""

    def test_wrong_labels_raise_at_bind_time(self):
        counter = Counter("c", labels=("kind",))
        for labels in ({}, {"host": "a"}, {"kind": "q", "host": "a"}):
            with pytest.raises(MetricError):
                counter.series(**labels)
        assert counter.items() == {}

    def test_binding_past_max_series_returns_the_overflow_series(self):
        counter = Counter("c", labels=("id",), max_series=2)
        first = counter.series(id="a")
        counter.series(id="b")
        spilled = counter.series(id="c")
        assert counter.series(id="d") is spilled
        assert counter.overflowed == 2
        spilled.inc()
        assert counter.items() == {("a",): 0.0, ("b",): 0.0,
                                   OVERFLOW_KEY: 1.0}
        assert counter.series(id="a") is first

    def test_negative_inc_through_the_handle_raises(self):
        handle = Counter("c").series()
        with pytest.raises(MetricError):
            handle.inc(-1)
        assert handle.value == 0.0

    def test_handle_and_labelled_inc_update_one_series(self):
        counter = Counter("c", labels=("kind",))
        handle = counter.series(kind="query")
        handle.inc()
        counter.inc(2, kind="query")
        handle.inc(0.5)
        assert counter.value(kind="query") == 3.5 == handle.value
        assert counter.series(kind="query") is handle

    def test_message_stats_counts_from_zero_after_reset(self):
        """The reset between phases of ``bench_fig5_discovery``: a reset
        detaches the handles taken before it, so ``MessageStats`` binds
        again; stale handles would leave every later count at zero."""
        stats = MessageStats(MetricsRegistry())
        for _ in range(3):
            stats.record_send("component-up")
            stats.record_delivery("lab-pc", 1.0)
        stats.record_drop()
        stats.reset()
        stats.record_send("component-up")
        stats.record_delivery("lab-pc", 2.0)
        stats.record_drop()
        assert (stats.sent, stats.delivered, stats.dropped) == (1, 1, 1)
        assert stats.by_kind == {"component-up": 1}
        assert stats.host_load == {"lab-pc": 1}
        assert stats.latency_count == 1 and stats.latencies == [2.0]


class TestReservoir:
    def test_memory_stays_bounded_counts_exact(self):
        reservoir = Reservoir(capacity=64)
        for value in range(10_000):
            reservoir.observe(float(value))
        assert len(reservoir) == 64
        assert reservoir.count == 10_000
        assert reservoir.min == 0.0
        assert reservoir.max == 9999.0
        assert reservoir.total == sum(range(10_000))

    def test_deterministic_given_seed(self):
        first = Reservoir(capacity=16, seed=5)
        second = Reservoir(capacity=16, seed=5)
        for value in range(1000):
            first.observe(float(value))
            second.observe(float(value))
        assert first.samples == second.samples

    def test_quantiles_under_capacity_are_exact(self):
        reservoir = Reservoir(capacity=200)
        for value in range(1, 101):
            reservoir.observe(float(value))
        assert reservoir.quantile(0.50) == 50.0
        assert reservoir.quantile(0.95) == 95.0
        assert reservoir.quantile(1.0) == 100.0

    def test_quantiles_over_capacity_stay_representative(self):
        reservoir = Reservoir(capacity=256)
        for value in range(10_000):
            reservoir.observe(float(value))
        p50 = reservoir.quantile(0.50)
        assert 3000 < p50 < 7000  # uniform stream: median near the middle

    def test_summary_fields(self):
        reservoir = Reservoir()
        reservoir.observe(2.0)
        reservoir.observe(4.0)
        summary = reservoir.summary()
        assert summary["count"] == 2
        assert summary["mean"] == 3.0
        assert summary["min"] == 2.0 and summary["max"] == 4.0

    def test_empty_summary_is_zeroed(self):
        assert Reservoir().summary()["count"] == 0


class TestHistogram:
    def test_per_series_reservoirs(self):
        hist = Histogram("h", labels=("host",))
        hist.observe(1.0, host="a")
        hist.observe(3.0, host="b")
        assert hist.series(host="a").count == 1
        assert hist.count == 2
        assert hist.sum == 4.0

    def test_label_free_summary_merges(self):
        hist = Histogram("h", labels=("host",))
        for value in (1.0, 2.0, 3.0):
            hist.observe(value, host="a")
        hist.observe(10.0, host="b")
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["max"] == 10.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("c", labels=("k",))
        second = registry.counter("c", labels=("k",))
        assert first is second

    def test_redeclare_with_other_type_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricError):
            registry.gauge("m")

    def test_redeclare_with_other_labels_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("m", labels=("b",))

    def test_snapshot_isolated_from_later_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("k",))
        counter.inc(k="x")
        snapshot = registry.snapshot()
        counter.inc(k="x")
        counter.inc(k="y")
        assert snapshot["c"]["series"] == [{"labels": {"k": "x"}, "value": 1.0}]
        fresh = registry.snapshot()
        assert len(fresh["c"]["series"]) == 2

    def test_snapshot_mutation_does_not_leak_back(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snapshot = registry.snapshot()
        snapshot["c"]["series"][0]["value"] = 999
        assert registry.snapshot()["c"]["series"][0]["value"] == 1.0

    def test_snapshot_histogram_summary(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(5.0)
        entry = registry.snapshot()["h"]
        assert entry["type"] == "histogram"
        assert entry["series"][0]["summary"]["count"] == 1

    def test_reset_named_metrics_only(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("b").inc()
        registry.reset(["a"])
        assert registry.get("a").total() == 0
        assert registry.get("b").total() == 1

    def test_to_json_round_trips(self):
        import json
        registry = MetricsRegistry()
        registry.counter("c", labels=("k",)).inc(k="v")
        parsed = json.loads(registry.to_json())
        assert parsed["c"]["series"][0]["labels"] == {"k": "v"}
