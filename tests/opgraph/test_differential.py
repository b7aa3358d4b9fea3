"""Differential equivalence: mediator vs reference scan.

The shared filter table is the mediator's only dispatch engine on the
strength of this suite: its observable delivery behaviour is
*entry-identical* to the linear reference scan
(``tests/events/reference_scan.py``).
"""

from __future__ import annotations

import pytest

from tests.opgraph.scenarios import run_scenario


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


@pytest.mark.parametrize("seed", [7, 1234])
def test_equivalence_holds_across_seeds(seed):
    reference = run_scenario(reference=True, seed=seed)
    mediator = run_scenario(seed=seed)
    assert reference["logs"] == mediator["logs"]
