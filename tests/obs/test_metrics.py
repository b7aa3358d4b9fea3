"""Registry semantics: labels, cardinality, histogram quantiles, snapshots."""

import pytest

from repro.net.stats import MessageStats
from repro.obs.catalog import CATALOG
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

    def test_a_label_set_asked_for_again_is_memoised(self, monkeypatch):
        counter = Counter("c", labels=("range", "kind"))
        checks = []
        real = counter._label_key
        monkeypatch.setattr(counter, "_label_key",
                            lambda labels: checks.append(labels) or real(labels))
        first = counter.series(range="r", kind="publish")
        assert counter.series(range="r", kind="publish") is first
        assert len(checks) == 2  # bound, then validated once more
        for _ in range(3):
            assert counter.series(range="r", kind="publish") is first
        assert len(checks) == 2
        # the other order of the same names finds the one series, the long
        # way every time
        for _ in range(3):
            assert counter.series(kind="publish", range="r") is first
        assert len(checks) == 5 and len(counter.items()) == 1

    def test_wrong_labels_still_raise_after_the_right_set_is_bound(self):
        counter = Counter("c", labels=("kind",))
        bound = counter.series(kind="query")
        assert counter.series(kind="query") is bound  # now memoised
        for labels in ({}, {"host": "query"}, {"kind": "query", "host": "a"}):
            with pytest.raises(MetricError):
                counter.series(**labels)
        assert counter.series(kind="query") is bound
        assert counter.items() == {("query",): 0.0}

    def test_a_non_string_value_binds_its_text(self):
        # 1, 1.0 and True hash alike but render "1", "1.0" and "True":
        # each is its own series, however often each is asked for
        counter = Counter("c", labels=("shard",))
        for _ in range(3):
            counter.series(shard=1).inc()
            counter.series(shard=True).inc(2)
            counter.series(shard=1.0).inc(4)
            counter.series(shard="1").inc(8)
        assert counter.items() == {("1",): 27.0, ("True",): 6.0,
                                   ("1.0",): 12.0}

    def test_reset_forgets_the_bound_sets(self):
        counter = Counter("c", labels=("kind",))
        stale = counter.series(kind="query")
        assert counter.series(kind="query") is stale  # now memoised
        counter.reset()
        fresh = counter.series(kind="query")
        assert fresh is not stale
        fresh.inc()
        assert counter.value(kind="query") == 1.0

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
            stats.sent_series["component-up"].inc()
            stats.delivered_series["lab-pc"].inc()
        stats.record_drop()
        stats.reset()
        stats.sent_series["component-up"].inc()
        stats.delivered_series["lab-pc"].inc()
        stats.record_drop()
        assert (stats.sent, stats.delivered, stats.dropped) == (1, 1, 1)
        assert stats.by_kind == {"component-up": 1}
        assert stats.host_load == {"lab-pc": 1}


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

    def test_label_free_summary_keeps_exact_min_and_max(self):
        """The merged summary of a labelled histogram takes min and max
        from its series, not from the samples its reservoirs kept."""
        hist = Histogram("h", labels=("host",), reservoir_size=2)
        for value in (100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0):
            hist.observe(value, host="a")
        hist.observe(0.5, host="b")
        assert 100.0 not in hist.series(host="a").samples
        summary = hist.summary()
        assert summary["max"] == 100.0 == hist.series(host="a").max
        assert summary["min"] == 0.5
        assert summary["count"] == 11


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("net.messages.sent")
        second = registry.counter("net.messages.sent")
        assert first is second

    def test_undeclared_name_rejected(self):
        registry = MetricsRegistry()
        for method in (registry.counter, registry.gauge, registry.histogram):
            with pytest.raises(MetricError, match="not declared"):
                method("made.up.metric")
        assert len(registry) == 0

    def test_wrong_kind_rejected_before_first_use(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="declared as a counter"):
            registry.histogram("net.messages.sent")
        assert "net.messages.sent" not in registry

    def test_redeclare_with_other_type_rejected(self):
        registry = MetricsRegistry()
        registry.counter("net.messages.dropped")
        with pytest.raises(MetricError):
            registry.gauge("net.messages.dropped")

    def test_labels_other_than_the_catalogs_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("net.retry.attempts")
        assert counter.label_names == CATALOG["net.retry.attempts"].labels
        with pytest.raises(MetricError):
            counter.inc(host="a")

    def test_every_catalog_entry_builds_through_its_kind(self):
        registry = MetricsRegistry()
        for spec in CATALOG.values():
            metric = getattr(registry, spec.kind)(spec.name)
            assert metric.kind == spec.kind
        snapshot = registry.snapshot()
        assert sorted(snapshot) == sorted(CATALOG)
        for name, entry in snapshot.items():
            assert entry["type"] == CATALOG[name].kind
            assert entry["help"] == CATALOG[name].help
            assert tuple(entry["labels"]) == CATALOG[name].labels

    def test_snapshot_isolated_from_later_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("net.messages.sent")
        counter.inc(kind="x")
        snapshot = registry.snapshot()
        counter.inc(kind="x")
        counter.inc(kind="y")
        assert snapshot["net.messages.sent"]["series"] == [
            {"labels": {"kind": "x"}, "value": 1.0}]
        fresh = registry.snapshot()
        assert len(fresh["net.messages.sent"]["series"]) == 2

    def test_snapshot_mutation_does_not_leak_back(self):
        registry = MetricsRegistry()
        registry.counter("net.messages.dropped").inc()
        snapshot = registry.snapshot()
        snapshot["net.messages.dropped"]["series"][0]["value"] = 999
        series = registry.snapshot()["net.messages.dropped"]["series"]
        assert series[0]["value"] == 1.0

    def test_snapshot_histogram_summary(self):
        registry = MetricsRegistry()
        registry.histogram("overlay.route.hops").observe(5.0)
        entry = registry.snapshot()["overlay.route.hops"]
        assert entry["type"] == "histogram"
        assert entry["series"][0]["summary"]["count"] == 1

    def test_reset_named_metrics_only(self):
        registry = MetricsRegistry()
        registry.counter("net.messages.dropped").inc()
        registry.counter("net.messages.undeliverable").inc()
        registry.reset(["net.messages.dropped"])
        assert registry.get("net.messages.dropped").total() == 0
        assert registry.get("net.messages.undeliverable").total() == 1

    def test_to_json_round_trips(self):
        import json
        registry = MetricsRegistry()
        registry.counter("net.messages.sent").inc(kind="v")
        parsed = json.loads(registry.to_json())
        assert parsed["net.messages.sent"]["series"][0]["labels"] == {
            "kind": "v"}
