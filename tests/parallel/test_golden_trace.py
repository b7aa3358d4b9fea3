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

from collections import Counter

from tests.parallel.scenarios import run_scenario

#: blake2b-128 of the canonical per-host event log of
#: ``run_scenario(seed=11)`` — production and the reference heap alike
GOLDEN_DIGEST = "26e438e441790d5a57e6b999fff12137"
GOLDEN_ENTRIES = 768

#: the event log's timer rows of the same run, counted by callback site
GOLDEN_TIMER_SITES = {
    "EventMediator._window_expired": 42,
    "OverlayNode.route": 12,
    "StormPublisher.publish": 24,
    "StormSubscriber._echo": 165,
}
#: the run's delivered and dropped message counts; the log records neither
#: the chaos injector's control events nor undelivered messages
GOLDEN_DELIVERED = 525
GOLDEN_DROPPED = 54


def test_golden_trace():
    result = run_scenario()
    assert result["entries"] == GOLDEN_ENTRIES
    assert result["digest"] == GOLDEN_DIGEST, (
        f"digest {result['digest']} — observable behaviour changed; if "
        "intended, re-mint the constants (see module docstring)")
    assert Counter(entry[3] for entry in result["log"].entries()
                   if entry[2] == "timer") == GOLDEN_TIMER_SITES
    assert result["delivered"] == GOLDEN_DELIVERED
    assert result["dropped"] == GOLDEN_DROPPED


def test_golden_trace_classic_scheduler():
    """The single-heap reference scheduler reproduces the same golden log
    on this jittered scenario (see test_differential for why ties are the
    only configurations where it could differ)."""
    result = run_scenario(reference_heap=True)
    assert result["entries"] == GOLDEN_ENTRIES
    assert result["digest"] == GOLDEN_DIGEST
