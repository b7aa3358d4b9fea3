"""Differential equivalence: mediator vs reference scan.

The operator graph is the mediator's only dispatch engine on the strength
of this suite: its observable delivery behaviour is *entry-identical* to
the linear reference scan (``tests/events/reference_scan.py``), with or
without continuous queries sharing the graph.
"""

from __future__ import annotations

import pytest

from tests.opgraph.scenarios import run_scenario


def _filter_logs(result):
    """Per-subscription logs for plain-filter subscriptions only."""
    return {label: log for label, log in result["logs"].items()
            if not label.startswith("query:")}


def test_mediator_matches_reference_scan():
    reference = run_scenario(reference=True)
    mediator = run_scenario()
    assert reference["logs"] == mediator["logs"]
    assert reference["delivered"] == mediator["delivered"]
    assert reference["acks"] == mediator["acks"]
    assert reference["subscription_count"] == mediator["subscription_count"]


def test_opgraph_dedups_lookalike_filters():
    result = run_scenario()
    stats = result["opgraph"]
    # six spec-identical look-alikes share one node: ≥5 reuse hits
    assert stats["reuse_hits"] >= 5
    assert stats["nodes"] <= stats["attached"]
    assert stats["reuse_ratio"] > 0.0


def test_queries_never_disturb_filter_delivery():
    """Plain-filter logs of a run carrying window, select and join queries
    still equal the scan's: query plans sharing the graph never disturb
    filter delivery."""
    reference = run_scenario(reference=True, queries=True)
    mediator = run_scenario(queries=True)
    assert _filter_logs(reference) == _filter_logs(mediator)
    queries = {label: log for label, log in mediator["logs"].items()
               if label.startswith("query:")}
    assert len(queries) == 4 and all(queries.values())


@pytest.mark.parametrize("seed", [7, 1234])
def test_equivalence_holds_across_seeds(seed):
    reference = run_scenario(reference=True, seed=seed)
    mediator = run_scenario(seed=seed)
    assert reference["logs"] == mediator["logs"]
