"""Artefact export: schema validation, JSON round-trips, tables."""

import json

import pytest

from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    ArtifactError,
    load_metrics_json,
    load_trace_jsonl,
    metrics_artifact,
    summary_table,
    trace_table,
    validate_metrics_artifact,
    write_metrics_document,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("net.sent", "messages", labels=("kind",)).inc(kind="q")
    registry.histogram("net.latency", "delivery").observe(1.5)
    return registry


@pytest.fixture
def tracer():
    clock_value = [0.0]
    tracer = Tracer(lambda: clock_value[0])
    with tracer.span("root", op="test"):
        clock_value[0] = 1.0
        with tracer.span("child"):
            clock_value[0] = 2.0
    return tracer


class TestMetricsArtifact:
    def test_round_trip(self, registry, tmp_path):
        path = tmp_path / "run.metrics.json"
        doc = write_metrics_json(registry, path, meta={"run": 1})
        assert doc["schema"] == METRICS_SCHEMA
        loaded = load_metrics_json(path)
        assert loaded["meta"] == {"run": 1}
        assert loaded["metrics"]["net.sent"]["series"][0]["value"] == 1

    def test_profile_section(self, registry, tmp_path):
        """The writer records no profile; an older artefact that carries
        one still loads, since the schema accepts unknown keys."""
        assert "profile" not in metrics_artifact(registry)
        with pytest.raises(TypeError):
            write_metrics_json(registry, tmp_path / "x.json", profile=[])
        doc = dict(metrics_artifact(registry),
                   profile=[{"site": "X.tick", "count": 3}])
        path = tmp_path / "run.metrics.json"
        write_metrics_document(doc, path)
        assert load_metrics_json(path)["profile"][0]["site"] == "X.tick"

    def test_multi_run_document(self, registry, tmp_path):
        doc = {
            "schema": METRICS_SCHEMA,
            "meta": {},
            "runs": [{"system": "overlay", "n": 8,
                      "metrics": registry.snapshot()}],
        }
        path = tmp_path / "runs.metrics.json"
        write_metrics_document(doc, path)
        assert load_metrics_json(path)["runs"][0]["system"] == "overlay"

    @pytest.mark.parametrize("mutate, problem", [
        (lambda d: d.update(schema="nope"), "schema"),
        (lambda d: d.pop("metrics"), "metrics"),
        (lambda d: d["metrics"]["net.sent"].update(type="timer"), "type"),
        (lambda d: d["metrics"]["net.sent"]["series"][0].pop("value"), "value"),
        (lambda d: d["metrics"]["net.latency"]["series"][0]["summary"].pop("p95"),
         "p95"),
    ])
    def test_invalid_documents_rejected(self, registry, mutate, problem):
        doc = metrics_artifact(registry)
        mutate(doc)
        with pytest.raises(ArtifactError):
            validate_metrics_artifact(doc)

    def test_negative_counter_rejected(self):
        doc = {"schema": METRICS_SCHEMA, "meta": {}, "metrics": {
            "bad": {"type": "counter", "labels": [],
                    "series": [{"labels": {}, "value": -4}]}}}
        with pytest.raises(ArtifactError):
            validate_metrics_artifact(doc)


class TestTraceArtifact:
    def test_jsonl_round_trip(self, tracer, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        count = write_trace_jsonl(tracer, path)
        assert count == 2
        records = load_trace_jsonl(path)
        assert all(r["schema"] == TRACE_SCHEMA for r in records)
        by_name = {r["name"]: r for r in records}
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["root"]["duration"] == 2.0

    def test_wrong_schema_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "other", "name": "x"}) + "\n")
        with pytest.raises(ArtifactError):
            load_trace_jsonl(path)

    def test_single_trace_export(self, tracer, tmp_path):
        trace = tracer.traces()[0]
        path = tmp_path / "one.trace.jsonl"
        assert write_trace_jsonl(trace, path) == len(trace)


class TestTables:
    def test_summary_table_filters_by_prefix(self, registry):
        table = summary_table(registry, prefix="net.")
        assert "net.sent" in table and "net.latency" in table
        assert "kind=q" in table

    def test_trace_table_renders_tree(self, tracer):
        text = trace_table(tracer.traces()[0])
        assert "root" in text and "child" in text
        assert "op=test" in text
