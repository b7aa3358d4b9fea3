"""Golden-trace determinism regression for the scheduler and transport.

The differential harness proves production and the references agree with
*each other within one run of the suite*; this test pins the canonical
log to a digest minted when the canonical key landed, so an accidental
semantic change — a reordered heap key, a latency draw moved to a
different RNG stream, an extra observable — fails loudly even if it
shifts all of them identically.

If a PR changes observable behaviour *on purpose* (new message kinds in
the scenario's path, a latency model change), re-mint the constants:

    PYTHONPATH=src:. python -c "from tests.parallel.scenarios import \
run_scenario; r = run_scenario(); print(r['digest'], r['entries'])"

and say so in the PR — this file changing is the signal reviewers key on.
"""

from tests.parallel.scenarios import run_scenario

#: blake2b-128 of the canonical per-host event log of
#: ``run_scenario(seed=11)`` — production and the reference heap alike
GOLDEN_DIGEST = "3ff7245e9cfb0f006f79b237c229fd45"
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

def test_golden_trace():
    result = run_scenario()
    assert result["entries"] == GOLDEN_ENTRIES
    assert result["digest"] == GOLDEN_DIGEST, (
        f"digest {result['digest']} — observable behaviour changed; if "
        "intended, re-mint the constants (see module docstring)")
    assert result["profile"] == GOLDEN_PROFILE


def test_golden_trace_classic_scheduler():
    """The single-heap reference scheduler reproduces the same golden log
    on this jittered scenario (see test_differential for why ties are the
    only configurations where it could differ)."""
    result = run_scenario(reference_heap=True)
    assert result["entries"] == GOLDEN_ENTRIES
    assert result["digest"] == GOLDEN_DIGEST
