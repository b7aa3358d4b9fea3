"""The classic single-heap scheduler, kept as the equivalence reference.

One global binary heap keyed by ``(time, sequence)``: the monotonically
increasing sequence number makes same-instant events fire in schedule
order, whoever scheduled them. This was ``repro.net.sim.Scheduler`` before
events carried a canonical key; the differential suites plug it in through
``Network(scheduler=SingleHeapScheduler())`` to show that the canonical
``(when, origin_rank, origin_seq)`` order yields the same per-host
observables as the plain global order (under jittered latencies, where
cross-origin same-time ties have measure zero).

It speaks the transport-facing half of the scheduler API
(``register_host``, ``ambient``) with one trace stack, and records nothing
itself: :func:`tests.net.eventlog.attach` wraps its ``schedule_at`` as it
wraps the production scheduler's.
"""

import heapq
import itertools
from typing import Callable, List, Optional

from repro.net.sim import Timer


class SingleHeapScheduler:
    def __init__(self):
        self.now = 0.0
        self._heap: List[tuple] = []
        self._sequence = itertools.count()
        self._live = 0
        self.events_processed = 0
        #: the one trace stack, in and outside the run loop
        self.ambient: list = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args, **kwargs) -> Timer:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args, **kwargs)

    def schedule_at(self, when: float, fn: Callable, *args, **kwargs) -> Timer:
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        timer = Timer(when, scheduler=self)
        bound = (lambda: fn(*args, **kwargs)) if args or kwargs else fn
        heapq.heappush(self._heap, (when, next(self._sequence), timer, bound))
        self._live += 1
        return timer

    def call_soon(self, fn: Callable, *args, **kwargs) -> Timer:
        return self.schedule(0.0, fn, *args, **kwargs)

    def schedule_periodic(self, interval: float, fn: Callable) -> Timer:
        if interval <= 0:
            raise ValueError(f"non-positive interval: {interval}")
        handle = Timer(self.now + interval)

        def arm():
            handle.when = self.now + interval
            handle._scheduler = self
            heapq.heappush(self._heap, (handle.when, next(self._sequence),
                                        handle, tick))
            self._live += 1

        def tick():
            fn()
            if not handle.cancelled:
                arm()

        arm()
        return handle

    def schedule_delivery(self, source_rank: int, target_rank: int,
                          delay: float, fn: Callable, *args) -> None:
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence),
                                    None, lambda: fn(*args)))
        self._live += 1

    # -- running ------------------------------------------------------------

    def run_until_idle(self, max_time: Optional[float] = None,
                       max_events: int = 10_000_000) -> float:
        processed = 0
        try:
            while self._heap:
                when, _seq, timer, bound = self._heap[0]
                if max_time is not None and when > max_time:
                    break
                heapq.heappop(self._heap)
                if timer is not None:
                    if timer.cancelled:
                        continue
                    timer._scheduler = None
                self._live -= 1
                self.now = when
                bound()
                processed += 1
                if processed >= max_events:
                    raise RuntimeError(
                        f"scheduler exceeded {max_events} events; runaway loop?")
        finally:
            self.events_processed += processed
        if max_time is not None and self.now < max_time:
            self.now = max_time  # time passes even when nothing is scheduled
        return self.now

    def run_for(self, duration: float) -> float:
        return self.run_until_idle(max_time=self.now + duration)

    def run_until(self, when: float) -> float:
        if when < self.now:
            raise ValueError(f"cannot run backwards: {when} < {self.now}")
        return self.run_until_idle(max_time=when)

    @property
    def pending(self) -> int:
        return self._live

    # -- the transport-facing half of the scheduler API -----------------------

    def register_host(self, host_id: str) -> int:
        return 0
