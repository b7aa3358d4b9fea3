"""Unit tests for the scheduler's engine mechanics.

The equivalence suites (``tests/parallel``, the Hypothesis property) prove
whole-run order; these tests pin the individual mechanisms that order is
built from — dense host ranks, control events first at time ties, the
clock inside callbacks, bounded runs and the ``pending`` counter — so a
regression fails here with a mechanism's name on it rather than as a
digest mismatch. (The file keeps the name it had when the scheduler also
sharded hosts over lanes; what is left are the mechanisms one heap needs.)
"""

import pytest

from repro.net.sim import Scheduler

POOL = tuple(f"host-{i}" for i in range(16))
#: the scheduler rank of each host in POOL, once make_sched registered it
RANKS = tuple(range(len(POOL)))


def make_sched():
    sched = Scheduler()
    for host in POOL:
        sched.register_host(host)
    return sched


# -- construction and topology ------------------------------------------------


def test_host_ranks_are_dense_and_registration_is_idempotent():
    sched = Scheduler()
    assert [sched.register_host(host) for host in POOL] == list(range(16))
    # re-registration keeps the original rank
    assert sched.register_host(POOL[0]) == 0
    assert sched.register_host(POOL[7]) == 7


# -- control events and the clock ---------------------------------------------


def test_external_and_control_context_may_send_for_any_host():
    sched = make_sched()
    got = []
    source, target = RANKS[0], RANKS[1]
    # external (setup) context: nothing is executing, no restriction
    sched.schedule_delivery(source, target, 1.0, got.append, "setup")
    # control context: a control callback drives a host send
    sched.schedule(2.0, lambda: sched.schedule_delivery(
        target, source, 1.0, got.append, "control"))
    sched.run_until_idle()
    assert got == ["setup", "control"]


def test_control_events_run_first_at_ties():
    """A control event at t=2 is observed by every host event at or after
    t=2 and by no host event before it — even host events queued for t=2
    before the control event was."""
    sched = make_sched()
    state = {"flag": False}
    seen = {}
    times = (1.0, 2.0, 3.0)
    for i, host in enumerate(RANKS):
        sched.schedule_delivery(
            host, host, times[i % 3],
            lambda h=host: seen.__setitem__(h, state["flag"]))
    sched.schedule(2.0, lambda: state.__setitem__("flag", True))
    sched.run_until_idle()
    for i, host in enumerate(RANKS):
        assert seen[host] is (times[i % 3] >= 2.0)


def test_what_a_control_event_schedules_is_control_again():
    """Control context is inherited: the follow-up a control event arms for
    a later instant still beats that instant's host events."""
    sched = make_sched()
    order = []
    host = RANKS[0]
    sched.schedule_delivery(host, host, 3.0, order.append, "host")
    sched.schedule(1.0, lambda: sched.schedule(2.0, order.append, "control"))
    sched.run_until_idle()
    assert order == ["control", "host"]


def test_now_is_lane_local_inside_callbacks():
    """Inside a callback ``now`` is that event's time; afterwards it is the
    time of the last event fired."""
    sched = make_sched()
    observed = []
    for i, host in enumerate(RANKS[:4]):
        when = 1.0 + i
        sched.schedule_delivery(host, host, when,
                                lambda w=when: observed.append(
                                    (w, sched.now)))
    sched.run_until_idle()
    assert all(now == when for when, now in observed)
    assert sched.now == 4.0


# -- bounded runs and the pending counter --------------------------------------


def test_run_for_and_run_until_advance_time_when_idle():
    sched = make_sched()
    assert sched.run_for(5.0) == 5.0
    assert sched.now == 5.0
    assert sched.run_until(7.5) == 7.5
    with pytest.raises(ValueError):
        sched.run_until(2.0)


def test_events_beyond_max_time_stay_queued():
    sched = make_sched()
    fired = []
    host = RANKS[0]
    sched.schedule_delivery(host, host, 1.0, fired.append, "early")
    sched.schedule_delivery(host, host, 10.0, fired.append, "late")
    sched.run_for(5.0)
    assert fired == ["early"]
    assert sched.pending == 1
    sched.run_until_idle()
    assert fired == ["early", "late"]
    assert sched.pending == 0


def test_runaway_guard():
    sched = make_sched()

    def rearm():
        sched.schedule(1.0, rearm)

    sched.schedule(1.0, rearm)
    with pytest.raises(RuntimeError, match="runaway"):
        sched.run_until_idle(max_events=50)


def test_pending_sums_all_lanes():
    """``pending`` counts host deliveries and control timers alike, and a
    cancelled timer leaves it at once."""
    sched = make_sched()
    for host in RANKS[:8]:
        sched.schedule_delivery(host, host, 1.0, lambda: None)
    timer = sched.schedule(2.0, lambda: None)  # a control event
    assert sched.pending == 9
    timer.cancel()
    assert sched.pending == 8
    sched.run_until_idle()
    assert sched.pending == 0
    assert sched.events_processed == 8
