"""Timer lifecycle edge cases against both scheduler implementations.

The ``pending`` counter (``_live``) is maintained incrementally on push,
pop and cancel instead of scanning the heap; these tests pin the exactness
of that bookkeeping through every path a cancellation can take: before the
fire, after the fire, twice, from inside another callback, from inside the
timer's *own* callback, and through a periodic re-arm chain. Parametrised
over :class:`~repro.net.sim.Scheduler` ("production") and the test-side
single-heap reference ("classic"), which reuses
:class:`~repro.net.sim.Timer` via its duck-typed ``_scheduler``
back-reference and must keep the same contract.
"""

import pytest

from repro.net.sim import Scheduler
from tests.parallel.single_heap import SingleHeapScheduler


@pytest.fixture(params=["classic", "production"])
def sched(request):
    return SingleHeapScheduler() if request.param == "classic" else Scheduler()


def test_pending_is_exact_through_schedule_cancel_run(sched):
    fired = []
    timers = [sched.schedule(float(i + 1), fired.append, i) for i in range(5)]
    assert sched.pending == 5
    timers[1].cancel()
    timers[3].cancel()
    assert sched.pending == 3
    sched.run_until_idle()
    assert fired == [0, 2, 4]
    assert sched.pending == 0


def test_cancel_after_fire_is_a_noop(sched):
    fired = []
    timer = sched.schedule(1.0, fired.append, "x")
    sched.run_until_idle()
    assert fired == ["x"]
    assert sched.pending == 0
    timer.cancel()          # late cancel of an already-fired timer
    timer.cancel()          # and again
    assert sched.pending == 0, "late cancel corrupted the live counter"
    # the heap is empty; the stale handle must not resurrect anything
    sched.run_until_idle()
    assert fired == ["x"]


def test_double_cancel_decrements_once(sched):
    keep = sched.schedule(2.0, lambda: None)
    victim = sched.schedule(1.0, lambda: None)
    victim.cancel()
    victim.cancel()
    assert sched.pending == 1
    sched.run_until_idle()
    assert sched.pending == 0
    assert not keep.cancelled


def test_cancel_from_inside_another_callback(sched):
    fired = []
    victim = sched.schedule(2.0, fired.append, "victim")

    def assassin():
        fired.append("assassin")
        victim.cancel()
        assert sched.pending == 0  # victim was the only other live event

    sched.schedule(1.0, assassin)
    sched.run_until_idle()
    assert fired == ["assassin"]
    assert sched.pending == 0


def test_cancel_own_timer_from_inside_its_callback(sched):
    fired = []
    holder = {}

    def self_absorbed():
        fired.append("fired")
        # by now the timer has been popped: cancel must not double-count
        holder["timer"].cancel()
        assert sched.pending == 0

    holder["timer"] = sched.schedule(1.0, self_absorbed)
    sched.run_until_idle()
    assert fired == ["fired"]
    assert sched.pending == 0


def test_periodic_cancel_stops_the_rearm_chain(sched):
    ticks = []
    handle = sched.schedule_periodic(1.0, lambda: ticks.append(sched.now))

    def stop():
        handle.cancel()

    sched.schedule(3.5, stop)
    sched.run_until_idle()
    assert ticks == [1.0, 2.0, 3.0]
    assert sched.pending == 0
    # cancelling the dead chain again stays a no-op
    handle.cancel()
    assert sched.pending == 0


def test_periodic_cancel_between_ticks_drops_the_armed_tick(sched):
    ticks = []
    handle = sched.schedule_periodic(5.0, lambda: ticks.append(sched.now))
    sched.run_until(12.0)
    assert sched.pending == 1
    handle.cancel()
    assert sched.pending == 0
    assert sched.run_until_idle() == 12.0
    assert ticks == [5.0, 10.0]


def test_same_instant_events_fire_in_schedule_order(sched):
    fired = []
    for i in range(4):
        sched.schedule(1.0, fired.append, i)
    sched.run_until_idle()
    assert fired == [0, 1, 2, 3]


def test_call_soon_runs_after_pending_same_time_events(sched):
    fired = []
    sched.schedule(0.0, fired.append, "first")
    sched.call_soon(fired.append, "second")
    sched.run_until_idle()
    assert fired == ["first", "second"]


def test_schedule_validation(sched):
    with pytest.raises(ValueError):
        sched.schedule(-1.0, lambda: None)
    sched.schedule(1.0, lambda: None)
    sched.run_until_idle()
    with pytest.raises(ValueError):
        sched.schedule_at(0.5, lambda: None)  # now is 1.0: the past
    with pytest.raises(ValueError):
        sched.schedule_periodic(0.0, lambda: None)
