"""Scheduler semantics: ordering, cancellation, bounded runs, periodics,
and the callback labels the event log records."""

import pytest

from repro.net.sim import Scheduler, callsite


class _Worker:
    def tick(self):
        pass


class _Inheritor(_Worker):
    pass


def _free_fn():
    pass


class TestCallsite:
    def test_bound_method_site(self):
        assert callsite(_Worker().tick) == "_Worker.tick"

    def test_inherited_method_site_names_the_defining_class(self):
        # the code that runs is _Worker.tick, whichever instance runs it
        assert callsite(_Inheritor().tick) == "_Worker.tick"

    def test_free_function_site(self):
        assert callsite(_free_fn).endswith("_free_fn")

    def test_lambda_site_is_usable(self):
        assert "lambda" in callsite(lambda: None)


class TestScheduling:
    def test_fires_in_time_order(self):
        sched = Scheduler()
        fired = []
        sched.schedule(3.0, fired.append, "c")
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(2.0, fired.append, "b")
        sched.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_schedule_order(self):
        sched = Scheduler()
        fired = []
        for label in "abcde":
            sched.schedule(1.0, fired.append, label)
        sched.run_until_idle()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sched = Scheduler()
        sched.schedule(5.5, lambda: None)
        assert sched.run_until_idle() == 5.5
        assert sched.now == 5.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sched = Scheduler()
        sched.schedule(5.0, lambda: None)
        sched.run_until_idle()
        with pytest.raises(ValueError):
            sched.schedule_at(1.0, lambda: None)

    def test_nested_scheduling(self):
        sched = Scheduler()
        fired = []

        def outer():
            fired.append("outer")
            sched.schedule(1.0, fired.append, "inner")

        sched.schedule(1.0, outer)
        sched.run_until_idle()
        assert fired == ["outer", "inner"]
        assert sched.now == 2.0

    def test_kwargs_passed(self):
        sched = Scheduler()
        seen = {}
        sched.schedule(1.0, seen.update, x=1)
        sched.run_until_idle()
        assert seen == {"x": 1}


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self):
        sched = Scheduler()
        fired = []
        timer = sched.schedule(1.0, fired.append, "x")
        timer.cancel()
        sched.run_until_idle()
        assert fired == []

    def test_pending_ignores_cancelled(self):
        sched = Scheduler()
        timer = sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        timer.cancel()
        assert sched.pending == 1


class TestBoundedRuns:
    def test_run_until_stops_at_limit(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "early")
        sched.schedule(10.0, fired.append, "late")
        sched.run_until(5.0)
        assert fired == ["early"]
        assert sched.now == 5.0

    def test_run_for_relative(self):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        sched.run_until_idle()
        sched.run_for(4.0)
        assert sched.now == 5.0

    def test_late_event_still_queued_after_bounded_run(self):
        sched = Scheduler()
        fired = []
        sched.schedule(10.0, fired.append, "late")
        sched.run_until(5.0)
        sched.run_until(15.0)
        assert fired == ["late"]

    def test_run_backwards_rejected(self):
        sched = Scheduler()
        sched.schedule(5.0, lambda: None)
        sched.run_until_idle()
        with pytest.raises(ValueError):
            sched.run_until(1.0)

    def test_runaway_guard(self):
        sched = Scheduler()

        def reschedule():
            sched.schedule(0.0, reschedule)

        sched.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError):
            sched.run_until_idle(max_events=1000)


class TestPendingCounter:
    """``Scheduler.pending`` is a live counter (O(1)), not a heap scan —
    these pin it to the brute-force ground truth under churn."""

    @staticmethod
    def heap_scan(sched):
        return sum(1 for entry in sched._heap if not entry[4].cancelled)

    def test_counter_matches_heap_scan_under_churn(self):
        import random
        rng = random.Random(13)
        sched = Scheduler()
        timers = []
        for _ in range(300):
            action = rng.random()
            if action < 0.5:
                timers.append(sched.schedule(rng.uniform(0, 10), lambda: None))
            elif action < 0.8 and timers:
                timers.pop(rng.randrange(len(timers))).cancel()
            else:
                sched.run_for(rng.uniform(0, 2))
                timers = [t for t in timers if t.when > sched.now]
            assert sched.pending == self.heap_scan(sched)
        sched.run_until_idle()
        assert sched.pending == self.heap_scan(sched) == 0

    def test_cancel_after_fire_is_a_noop(self):
        sched = Scheduler()
        timer = sched.schedule(1.0, lambda: None)
        sched.schedule(5.0, lambda: None)
        sched.run_until(2.0)
        assert sched.pending == 1
        timer.cancel()  # already fired: must not decrement
        assert sched.pending == 1

    def test_double_cancel_counts_once(self):
        sched = Scheduler()
        timer = sched.schedule(1.0, lambda: None)
        sched.schedule(2.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert sched.pending == 1

    def test_periodic_cancel_keeps_counter_exact(self):
        sched = Scheduler()
        handle = sched.schedule_periodic(1.0, lambda: None)
        sched.run_until(3.0)
        assert sched.pending == self.heap_scan(sched)
        handle.cancel()
        assert sched.pending == self.heap_scan(sched) == 0
        sched.run_until_idle()
        assert sched.pending == self.heap_scan(sched) == 0


class TestPeriodic:
    def test_fires_every_interval(self):
        sched = Scheduler()
        ticks = []
        sched.schedule_periodic(2.0, lambda: ticks.append(sched.now))
        sched.run_until(10.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_cancel_stops_future_ticks(self):
        sched = Scheduler()
        ticks = []
        handle = sched.schedule_periodic(1.0, lambda: ticks.append(sched.now))
        sched.run_until(3.0)
        handle.cancel()
        sched.run_until(10.0)
        assert len(ticks) == 3

    def test_cancel_leaves_no_dead_tick_behind(self):
        """Cancelling between ticks takes the armed tick out at once: it
        is not pending, an idle scheduler does not advance to it, and it
        is not counted as an event."""
        sched = Scheduler()
        ticks = []
        handle = sched.schedule_periodic(5.0, lambda: ticks.append(sched.now))
        sched.run_until(12.0)
        assert ticks == [5.0, 10.0] and sched.pending == 1
        handle.cancel()
        assert sched.pending == 0
        assert sched.run_until_idle() == 12.0
        assert sched.events_processed == 2

    def test_cancel_from_inside_the_callback_stops_the_chain(self):
        sched = Scheduler()
        ticks = []
        holder = {}

        def tick():
            ticks.append(sched.now)
            if len(ticks) == 2:
                holder["handle"].cancel()

        holder["handle"] = sched.schedule_periodic(1.0, tick)
        sched.run_until_idle()
        assert ticks == [1.0, 2.0]
        assert sched.pending == 0

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().schedule_periodic(0.0, lambda: None)
