"""Differential harness: the substrate's equivalence theorem, executed.

The scheduler's contract is that the observable event log — message
deliveries and timer firings per host, in ``(time, execution)`` order —
is a function of the seed alone. The production run is the fixture; the
references must match it entry for entry, not merely digest for digest,
so a failure pinpoints the first diverging host and record.

The single-heap reference (:mod:`tests.parallel.single_heap`): on the
jittered-latency scenario, same-time cross-origin collisions (the only
orderings where the global-heap and canonical-key orders may differ) have
measure zero, so its output must be identical. The reference-scan
mediator: how a publish is matched must not show in the log.
"""

import pytest

from tests.parallel.scenarios import run_scenario


@pytest.fixture(scope="module")
def reference():
    """The production run (one heap, canonical key) both references must
    match."""
    return run_scenario()


def _assert_equivalent(result, reference):
    # entry-for-entry per-host comparison first: on failure pytest shows
    # the first diverging host's sequences, not just two hashes
    assert set(result["per_host"]) == set(reference["per_host"])
    for host in sorted(reference["per_host"]):
        assert result["per_host"][host] == reference["per_host"][host], (
            f"host {host} observed a different event sequence")
    assert result["digest"] == reference["digest"]
    assert result["entries"] == reference["entries"]
    # merged stats must agree exactly — counts, per-kind, per-host load
    for key in ("sent", "delivered", "dropped", "by_kind", "host_load"):
        assert result[key] == reference[key], f"stats diverged on {key}"
    # model-level observables: ack/probe counters, per-subscriber
    # deliveries, routed steps, final simulated time
    for key in ("acks", "probes", "received", "routed", "final_time"):
        assert result[key] == reference[key], f"model diverged on {key}"


def test_classic_scheduler_matches_single_lane(reference):
    _assert_equivalent(run_scenario(reference_heap=True), reference)


def test_reference_scan_mediator_matches_single_lane(reference):
    """Dispatch by filter table and by linear scan leave the same log."""
    _assert_equivalent(run_scenario(reference_scan=True), reference)


def test_scenario_is_not_trivial(reference):
    """Guard the harness itself: the scenario must actually exercise
    deliveries, timers, drops and multi-hop routing — an accidental
    empty log would make every equivalence above vacuously true."""
    kinds = {entry[2] for entries in reference["per_host"].values()
             for entry in entries}
    assert kinds == {"deliver", "timer"}
    assert reference["entries"] > 100
    assert reference["dropped"] > 0, "chaos episode never dropped anything"
    assert reference["routed"] > 0, "no routing probe ever took a step"
    assert all(count > 0 for count in reference["received"])
