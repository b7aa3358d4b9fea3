"""Exporting observability data: JSON artefacts, JSON-lines traces, tables.

The benchmarks emit two artefact kinds next to their text reports:

* a **metrics artefact** (``*.metrics.json``): one document holding registry
  snapshots plus run metadata, validated by :func:`validate_metrics_artifact`
  — the claim checks in :mod:`repro.obs.experiments` re-derive the paper's
  Figure-1 shape from this document alone, without re-running the bench;
* a **trace artefact** (``*.trace.jsonl``): one span per line, the format
  trace viewers and ad-hoc ``jq`` both cope with.

The schema validator is deliberately hand-rolled (the image has no
``jsonschema``); it checks structure and types, not business rules.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Trace, Tracer

#: artefact format marker; bump on incompatible changes
METRICS_SCHEMA = "sci.obs.metrics/1"
TRACE_SCHEMA = "sci.obs.trace/1"


class ArtifactError(ValueError):
    """An exported document does not match the artefact schema."""


# -- metrics artefacts --------------------------------------------------------


def metrics_artifact(registry: MetricsRegistry,
                     meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the canonical metrics document from a registry snapshot."""
    return {
        "schema": METRICS_SCHEMA,
        "meta": dict(meta or {}),
        "metrics": registry.snapshot(),
    }


def write_metrics_json(registry: MetricsRegistry, path: Union[str, Path],
                       meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Write a validated metrics artefact; returns the document."""
    return write_metrics_document(metrics_artifact(registry, meta), path)


def write_metrics_document(doc: Dict[str, Any],
                           path: Union[str, Path]) -> Dict[str, Any]:
    """Validate and write an already-built artefact (e.g. a multi-run doc)."""
    validate_metrics_artifact(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return doc


def _fail(where: str, problem: str) -> None:
    raise ArtifactError(f"{where}: {problem}")


def _validate_series_entry(where: str, entry: Any, kind: str) -> None:
    if not isinstance(entry, dict):
        _fail(where, f"series entry must be an object, got {type(entry).__name__}")
    if not isinstance(entry.get("labels"), dict):
        _fail(where, "series entry missing 'labels' object")
    if kind == "histogram":
        summary = entry.get("summary")
        if not isinstance(summary, dict):
            _fail(where, "histogram series missing 'summary' object")
        for field in ("count", "sum", "mean", "min", "max", "p50", "p95"):
            if not isinstance(summary.get(field), (int, float)):
                _fail(where, f"histogram summary missing numeric {field!r}")
        if summary["count"] < 0:
            _fail(where, "histogram count is negative")
    else:
        value = entry.get("value")
        if not isinstance(value, (int, float)):
            _fail(where, "series entry missing numeric 'value'")
        if kind == "counter" and value < 0:
            _fail(where, "counter value is negative")


def validate_metrics_snapshot(snapshot: Any, where: str = "metrics") -> None:
    """Validate one registry snapshot (the ``metrics`` section)."""
    if not isinstance(snapshot, dict):
        _fail(where, "must be an object of metric name -> entry")
    for name, entry in snapshot.items():
        spot = f"{where}[{name!r}]"
        if not isinstance(entry, dict):
            _fail(spot, "metric entry must be an object")
        kind = entry.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            _fail(spot, f"unknown metric type {kind!r}")
        if not isinstance(entry.get("labels"), list):
            _fail(spot, "missing 'labels' list")
        series = entry.get("series")
        if not isinstance(series, list):
            _fail(spot, "missing 'series' list")
        for index, item in enumerate(series):
            _validate_series_entry(f"{spot}.series[{index}]", item, kind)


def validate_metrics_artifact(doc: Any) -> None:
    """Raise :class:`ArtifactError` unless ``doc`` is a valid artefact.

    Accepts either a single-snapshot document (``metrics`` object) or a
    multi-run document (``runs`` list whose entries each embed a snapshot).
    """
    if not isinstance(doc, dict):
        _fail("document", "must be a JSON object")
    if doc.get("schema") != METRICS_SCHEMA:
        _fail("document", f"schema must be {METRICS_SCHEMA!r}, "
              f"got {doc.get('schema')!r}")
    if not isinstance(doc.get("meta", {}), dict):
        _fail("document", "'meta' must be an object")
    if "metrics" in doc:
        validate_metrics_snapshot(doc["metrics"])
    elif "runs" in doc:
        runs = doc["runs"]
        if not isinstance(runs, list) or not runs:
            _fail("document", "'runs' must be a non-empty list")
        for index, run in enumerate(runs):
            where = f"runs[{index}]"
            if not isinstance(run, dict):
                _fail(where, "run must be an object")
            for field in ("system", "n"):
                if field not in run:
                    _fail(where, f"run missing {field!r}")
            validate_metrics_snapshot(run.get("metrics"), f"{where}.metrics")
    else:
        _fail("document", "needs a 'metrics' snapshot or a 'runs' list")


def load_metrics_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read an artefact back and validate it before returning."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_metrics_artifact(doc)
    return doc


# -- trace artefacts ----------------------------------------------------------


def span_lines(source: Union[Tracer, Trace, Iterable[Span]]) -> Iterator[str]:
    """Yield one JSON line per span (whole tracer, one trace, or spans)."""
    if isinstance(source, Tracer):
        spans: Iterable[Span] = (span for trace in source.traces()
                                 for span in trace)
    elif isinstance(source, Trace):
        spans = iter(source)
    else:
        spans = source
    for span in spans:
        record = span.to_dict()
        record["schema"] = TRACE_SCHEMA
        yield json.dumps(record, sort_keys=True)


def write_trace_jsonl(source: Union[Tracer, Trace, Iterable[Span]],
                      path: Union[str, Path]) -> int:
    """Write spans as JSON lines; returns how many were written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in span_lines(source):
            handle.write(line + "\n")
            count += 1
    return count


def load_trace_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("schema") != TRACE_SCHEMA:
            raise ArtifactError(f"span line has schema {record.get('schema')!r}, "
                                f"expected {TRACE_SCHEMA!r}")
        records.append(record)
    return records


# -- human-readable tables ----------------------------------------------------


def summary_table(registry: MetricsRegistry, prefix: str = "") -> str:
    """A plain-text table of every metric (optionally name-filtered)."""
    snapshot = registry.snapshot()
    lines = [f"{'metric':<38} {'labels':<30} {'value':>14}"]
    for name in sorted(snapshot):
        if prefix and not name.startswith(prefix):
            continue
        entry = snapshot[name]
        for item in entry["series"]:
            labels = ",".join(f"{k}={v}" for k, v in
                              sorted(item["labels"].items())) or "-"
            if entry["type"] == "histogram":
                summary = item["summary"]
                value = (f"n={summary['count']} mean={summary['mean']:.3f} "
                         f"p95={summary['p95']:.3f}")
                lines.append(f"{name:<38.38} {labels:<30.30} {value:>14}")
            else:
                lines.append(f"{name:<38.38} {labels:<30.30} "
                             f"{item['value']:>14.6g}")
    return "\n".join(lines)


def trace_table(trace: Trace) -> str:
    """An indented tree rendering of one trace."""
    lines = [f"trace {trace.trace_id} — {len(trace)} span(s), "
             f"{trace.duration():.3f} sim s"]

    def walk(span: Span, depth: int) -> None:
        duration = f"{span.duration:.3f}" if span.closed else "open"
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        lines.append(f"{'  ' * depth}- {span.name} [{duration}] "
                     f"@{span.start:.3f} {attrs}".rstrip())
        for child in trace.children(span.span_id):
            walk(child, depth + 1)

    for root in trace.roots():
        walk(root, 1)
    return "\n".join(lines)
