"""Differential harness: the sharding equivalence theorem, executed.

The sharded mediator's contract is that per-subscription delivery logs —
the events each subscription observes, with values, in order — are
identical to one unsharded mediator's for a fixed seed, at any
shard count, through mid-run churn, retained replay to late joiners, and
a grow-then-drain rebalance with a deliberately stale publish address.
The linear reference scan (``tests/events/reference_scan.py``) is the
reference; the plain mediator and every sharded configuration must
match it entry for entry, not merely count for count, so a failure
pinpoints the first diverging subscription and record.

The scenario runs on the single-heap reference scheduler and, tying this
suite to ``tests/parallel/``, on the production scheduler: sharding must
stay equivalent when same-instant ties are broken by the canonical key
rather than by insertion order.
"""

import pytest

from tests.shard.scenarios import run_scenario

SHARD_COUNTS = (2, 3, 4, 8)


@pytest.fixture(scope="module")
def reference():
    """The single reference-scan run every configuration must match."""
    return run_scenario(shards=1, reference=True)


def _assert_equivalent(result, reference):
    # entry-for-entry per-subscription comparison first: on failure pytest
    # shows the first diverging subscription's log, not just two counts
    assert set(result["logs"]) == set(reference["logs"])
    for label in sorted(reference["logs"]):
        assert result["logs"][label] == reference["logs"][label], (
            f"subscription {label} observed a different delivery log")
    for key in ("delivered", "acks", "subscription_count"):
        assert result[key] == reference[key], f"diverged on {key}"


def test_plain_mediator_matches_reference_scan(reference):
    _assert_equivalent(run_scenario(shards=1), reference)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_matches_plain(shards, reference):
    _assert_equivalent(run_scenario(shards=shards), reference)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_without_rebalance_matches_plain(shards, reference):
    _assert_equivalent(run_scenario(shards=shards, rebalance=False),
                       reference)


@pytest.mark.parametrize("shards", (2, 4, 8))
def test_sharded_on_production_scheduler_matches_plain(shards, reference):
    _assert_equivalent(run_scenario(shards=shards, reference_heap=False),
                       reference)


def test_scenario_is_not_trivial(reference):
    """Guard the harness itself: every filter shape must actually fire —
    an accidentally empty log would make the equivalences vacuous."""
    logs = reference["logs"]
    assert all(logs[label] for label in logs), (
        f"dead subscriptions: {[l for l in logs if not logs[l]]}")
    # one-time subscriptions observed exactly one event
    assert len(logs["once:exact"]) == 1
    assert len(logs["once:routed"]) == 1
    # the removed tracker saw part of storm 1 only
    assert 0 < len(logs["track:temperature:room-0"]) < 10
    # late joiners replayed retained history: their first entries predate
    # their subscription time (values from storm 1, i.e. < 30)
    assert logs["late:replay:exact"][0][2] < 30
    assert logs["late:replay:typed"][0][2] < 30
    # the stale-address publish after the drain was handed off, not lost
    assert any(value == 999 for _, _, value in logs["residual:all"])
    assert reference["delivered"] > 200
