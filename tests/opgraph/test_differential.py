"""Differential equivalence: mediator vs reference scan, single vs sharded.

The operator graph is the mediator's only dispatch engine on the strength
of this suite: its observable delivery behaviour is *entry-identical* to
the linear reference scan (``tests/events/reference_scan.py``), and
per-shard graphs (with rebalance migrating live operator state) agree with
one single-mediator graph.
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


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_opgraph_matches_single(shards):
    single = run_scenario(shards=1, queries=True)
    sharded = run_scenario(shards=shards, queries=True)
    assert single["logs"] == sharded["logs"]
    assert single["subscription_count"] == sharded["subscription_count"]


def test_sharded_opgraph_rebalance_preserves_logs():
    quiet = run_scenario(shards=3, queries=True, rebalance=False)
    churned = run_scenario(shards=3, queries=True, rebalance=True)
    assert quiet["logs"] == churned["logs"]


def test_sharded_matches_reference_scan_on_filters():
    """Plain-filter logs of a sharded run carrying queries still equal the
    scan's: query plans sharing the graphs never disturb filter delivery."""
    reference = run_scenario(reference=True, queries=True)
    sharded = run_scenario(shards=2, queries=True)
    assert _filter_logs(reference) == _filter_logs(sharded)


@pytest.mark.parametrize("seed", [7, 1234])
def test_equivalence_holds_across_seeds(seed):
    reference = run_scenario(reference=True, seed=seed)
    mediator = run_scenario(seed=seed)
    assert reference["logs"] == mediator["logs"]
