"""Committed metrics artefacts describe metrics as the catalog declares them.

Each ``benchmarks/results/*.metrics.json`` embeds, per metric, the kind,
help and label names the run's registry took from
:data:`repro.obs.catalog.CATALOG`. A catalog edit that is not followed by a
re-run of the bench that writes the artefact leaves a reader of the
committed file looking at a declaration the code no longer makes.
"""

from pathlib import Path

import pytest

from repro.obs.catalog import CATALOG
from repro.obs.export import load_metrics_json

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
ARTEFACTS = sorted(RESULTS.glob("*.metrics.json"))


def _snapshots(doc):
    if "metrics" in doc:
        return [doc["metrics"]]
    return [run["metrics"] for run in doc["runs"]]


def test_the_benchmarks_commit_metrics_artefacts():
    assert ARTEFACTS


@pytest.mark.parametrize("path", ARTEFACTS, ids=lambda path: path.name)
def test_every_metric_matches_its_catalog_entry(path):
    stale = set()
    for snapshot in _snapshots(load_metrics_json(path)):
        for name, metric in snapshot.items():
            spec = CATALOG.get(name)
            if (spec is None or metric["type"] != spec.kind
                    or metric["help"] != spec.help
                    or tuple(metric["labels"]) != spec.labels):
                stale.add(name)
    assert sorted(stale) == []
