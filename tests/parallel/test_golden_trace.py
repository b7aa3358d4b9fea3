"""Golden-trace determinism regression for the partitioned substrate.

The differential harness proves configurations agree with *each other
within one run of the suite*; this test pins the canonical log to a
digest minted when the substrate landed, so an accidental semantic
change — a reordered heap key, a latency draw moved to a different RNG
stream, an extra observable — fails loudly even if it shifts every
configuration identically.

If a PR changes observable behaviour *on purpose* (new message kinds in
the scenario's path, a latency model change), re-mint the constants:

    PYTHONPATH=src:. python -c "from tests.parallel.scenarios import \
run_scenario; r = run_scenario(); print(r['digest'], r['entries'])"

and say so in the PR — this file changing is the signal reviewers key on.
"""

import pytest

from tests.parallel.scenarios import run_scenario

#: blake2b-128 of the canonical per-host event log of
#: ``run_scenario(seed=11)`` — identical for every configuration below
GOLDEN_DIGEST = "0ad2b786f40e4f14995d7bdce5d93b4a"
GOLDEN_ENTRIES = 181

#: the scheduler profiler's ``{site: events fired}`` table of the same run,
#: minted on the closure-carrying timers that preceded lazy site labels —
#: attribution must not move when the label is formatted on first read
GOLDEN_PROFILE = {
    "FaultInjector._end_loss": 1,
    "FaultInjector._end_outage": 1,
    "FaultInjector._end_partition": 1,
    "FaultInjector.host_outage": 1,
    "FaultInjector.loss_episode": 1,
    "FaultInjector.partition_episode": 1,
    "Network._deliver": 123,
    "OverlayNode.route": 12,
    "StormPublisher.publish": 24,
    "StormSubscriber._echo": 24,
}

CONFIGURATIONS = [
    pytest.param(1, id="partitions=1"),
    pytest.param(2, id="partitions=2"),
    pytest.param(4, id="partitions=4"),
    pytest.param(8, id="partitions=8"),
]


@pytest.mark.parametrize("partitions", CONFIGURATIONS)
def test_golden_trace(partitions):
    result = run_scenario(partitions=partitions)
    assert result["entries"] == GOLDEN_ENTRIES
    assert result["digest"] == GOLDEN_DIGEST, (
        f"partitions={partitions} produced digest "
        f"{result['digest']} — observable behaviour changed; if intended, "
        "re-mint the constants (see module docstring)")
    assert result["profile"] == GOLDEN_PROFILE


def test_golden_trace_classic_scheduler():
    """The single-heap reference scheduler reproduces the same golden log
    on this jittered scenario (see test_differential for why ties are the
    only configurations where it could differ)."""
    result = run_scenario(partitions=None)
    assert result["entries"] == GOLDEN_ENTRIES
    assert result["digest"] == GOLDEN_DIGEST
