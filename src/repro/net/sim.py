"""The discrete-event scheduler that drives all simulated time.

Every latency, lease, heartbeat and movement step in the reproduction is a
callback scheduled here: one binary heap, popped in key order by one loop.

Determinism is the load-bearing property. Every event carries a canonical
key ``(when, origin_rank, origin_seq)``:

* ``origin_rank`` — the dense registration index of the host whose
  execution *created* the event (the sender of a delivery, the scheduling
  host of a timer), or :data:`EXTERNAL_RANK` for events created outside any
  host context;
* ``origin_seq`` — a per-origin counter, incremented on every event that
  origin creates.

Both components depend only on the originating host's own execution
history, never on a global insertion counter — so which of two
same-instant events fires first is a function of who created them and of
how much each creator had done before, not of how unrelated hosts' calls
happened to interleave. Same-instant events of one origin fire in the
order it scheduled them. The reference heap under ``tests/parallel/``
(plain ``(time, insertion)`` order) is held equal to this one on jittered
workloads, where cross-origin ties have measure zero.

Events created outside any host context — setup code, test drivers, the
chaos injector — carry :data:`EXTERNAL_RANK`, which sorts before every
host rank: a control event at time ``t`` runs before every host event at
``t``, whatever it does (fail a host, change drop rates, send on a host's
behalf) is seen by all of them, and what it schedules is control again.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from typing import Any, Callable, Dict, List, Optional


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays put and is skipped when
    popped, which is O(1) and keeps the heap simple. ``_scheduler`` is the
    scheduler whose heap holds the timer, set only while it is live there;
    it lets :meth:`cancel` keep the pending-event counter exact without
    scanning the heap. The callback is not on the handle: the heap entry
    carries it. The test-side recorder (``attach`` in the event-log module
    under ``tests/net/``) sees timers by wrapping ``schedule_at``.
    """

    __slots__ = ("when", "cancelled", "_scheduler")

    def __init__(self, when: float, scheduler: Any = None):
        self.when = when
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._live -= 1
            self._scheduler = None


#: origin rank for events created outside any host context (setup code, the
#: chaos injector, test drivers). Sorts before every host rank, so control
#: events win time ties.
EXTERNAL_RANK = -1


class Scheduler:
    """A deterministic discrete-event loop over one heap.

    >>> sched = Scheduler()
    >>> fired = []
    >>> _ = sched.schedule(5.0, fired.append, "late")
    >>> _ = sched.schedule(1.0, fired.append, "early")
    >>> sched.run_until_idle()
    5.0
    >>> fired
    ['early', 'late']

    Heap entries are ``(when, origin_rank, origin_seq, owner_rank, timer,
    fn, args)``. ``(when, origin_rank, origin_seq)`` is the canonical
    ordering key (unique, so comparison never reaches the callable);
    ``owner_rank`` is the host whose state the callback touches and becomes
    the origin of whatever the callback schedules. Timers carry their
    callable and positional arguments in the entry (no closure);
    deliveries scheduled through :meth:`schedule_delivery` carry
    ``timer=None`` — no handle — which is the per-message fast path.
    """

    def __init__(self):
        self._heap: List[tuple] = []
        #: live (non-cancelled) entries; Timer.cancel decrements this via
        #: its ``_scheduler`` reference
        self._live = 0
        #: simulated time: the firing event's inside a callback, the end of
        #: the last ``run_*`` call outside
        self.now = 0.0
        #: True while the run loop executes (callbacks see True)
        self.running = False
        #: the host whose callback is executing; EXTERNAL_RANK outside the
        #: run loop and inside control events
        self._current_rank = EXTERNAL_RANK
        self._host_rank: Dict[str, int] = {}
        #: next ``origin_seq`` per origin, indexed by ``rank + 1`` (slot 0
        #: is EXTERNAL_RANK's)
        self._origin_seq: List[int] = [0]
        self._external_stack: List[Any] = []
        self._loop_stack: List[Any] = []
        #: the tracer frame stack of the current execution context: one for
        #: callbacks, one for code outside the run loop, so a span left open
        #: around a ``run_*`` call never becomes the parent of what the
        #: callbacks trace (read by :class:`repro.obs.tracing.Tracer` and
        #: ``Network.send``)
        self.ambient: List[Any] = self._external_stack
        self.events_processed = 0

    def register_host(self, host_id: str) -> int:
        """The dense origin rank of ``host_id`` (idempotent).

        Ranks follow registration order, which callers keep deterministic
        (hosts are added during setup).
        """
        rank = self._host_rank.get(host_id)
        if rank is None:
            rank = self._host_rank[host_id] = len(self._origin_seq) - 1
            self._origin_seq.append(0)
        return rank

    # -- scheduling ----------------------------------------------------------

    def _push(self, when: float, rank: int, owner_rank: int,
              timer: Optional[Timer], fn: Callable, args: tuple) -> None:
        """Queue one entry, drawing ``origin_seq`` from ``rank``'s counter."""
        seq = self._origin_seq[rank + 1]
        self._origin_seq[rank + 1] = seq + 1
        heapq.heappush(self._heap,
                       (when, rank, seq, owner_rank, timer, fn, args))
        self._live += 1

    def schedule(self, delay: float, fn: Callable, *args, **kwargs) -> Timer:
        """Run ``fn(*args, **kwargs)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args, **kwargs)

    def schedule_at(self, when: float, fn: Callable, *args, **kwargs) -> Timer:
        """Run ``fn(*args, **kwargs)`` at absolute simulated time ``when``.

        From inside a host callback the timer is keyed by (and runs as)
        that host; from control or external context it is a control event.
        A NaN or infinite ``when`` is refused: it would never fire, and at
        the head of the heap it would hold back every event behind it.
        """
        if not self.now <= when < math.inf:
            raise ValueError(
                f"cannot schedule in the past: {when} < {self.now}"
                if when < self.now else f"not a finite time: {when}")
        timer = Timer(when, scheduler=self)
        rank = self._current_rank
        self._push(when, rank, rank, timer,
                   partial(fn, **kwargs) if kwargs else fn, args)
        return timer

    def call_soon(self, fn: Callable, *args, **kwargs) -> Timer:
        """Run a callback at the current instant, after pending same-time events."""
        return self.schedule(0.0, fn, *args, **kwargs)

    def schedule_periodic(self, interval: float, fn: Callable) -> Timer:
        """Run ``fn()`` every ``interval`` units until the returned timer is
        cancelled. The one handle is re-queued for every tick, so cancelling
        it takes the armed tick out of :attr:`pending` at once."""
        if not 0 < interval < math.inf:
            raise ValueError(f"not a positive finite interval: {interval}")
        handle = Timer(self.now + interval, scheduler=self)
        rank = self._current_rank

        def tick():
            fn()
            if not handle.cancelled:
                handle.when = self.now + interval
                handle._scheduler = self
                self._push(handle.when, rank, rank, handle, tick, ())

        self._push(handle.when, rank, rank, handle, tick, ())
        return handle

    def schedule_delivery(self, source_rank: int, target_rank: int,
                          delay: float, fn: Callable, *args) -> None:
        """Transport fast path: run ``fn(*args)`` as the target host.

        Both hosts are given by their :meth:`register_host` rank. The
        canonical key uses the *sender's* rank and counter — both functions
        of the sender's own execution history. No Timer handle is minted
        (deliveries are never cancelled), so the entry is a bare heap
        tuple, pushed here without a further call.
        """
        origin_seq = self._origin_seq
        seq = origin_seq[source_rank + 1]
        origin_seq[source_rank + 1] = seq + 1
        heapq.heappush(self._heap, (self.now + delay, source_rank, seq,
                                    target_rank, None, fn, args))
        self._live += 1

    # -- running -------------------------------------------------------------

    def run_until_idle(self, max_time: Optional[float] = None,
                       max_events: int = 10_000_000) -> float:
        """Fire queued events in canonical key order; returns the final time.

        ``max_time`` bounds how far the clock may advance: events beyond it
        stay queued and the clock ends at ``max_time``. An infinite bound is
        no bound, as ``None`` is: the clock stops at the last event fired. A
        NaN bound is refused, as :meth:`schedule_at` refuses a NaN time: it
        compares False with every event, so the run would fire nothing.
        ``max_events`` is a runaway guard. :meth:`run_for` and
        :meth:`run_until` are bounded runs, checked here.
        """
        if max_time is not None and not max_time < math.inf:
            if max_time != math.inf:
                raise ValueError(f"not a time bound: {max_time}")
            max_time = None
        heap = self._heap
        heappop = heapq.heappop
        stop = math.inf if max_time is None else max_time
        processed = 0
        self.running = True
        outer, self.ambient = self.ambient, self._loop_stack
        try:
            while heap and heap[0][0] <= stop:
                when, _, _, owner_rank, timer, fn, args = heappop(heap)
                if timer is not None:
                    if timer.cancelled:
                        continue
                    # it fires now: a late cancel() on the handle must not
                    # decrement the live counter
                    timer._scheduler = None
                self._live -= 1
                self.now = when
                self._current_rank = owner_rank
                fn(*args)
                processed += 1
                if processed >= max_events:
                    raise RuntimeError(
                        f"scheduler exceeded {max_events} events; runaway loop?")
        finally:
            self.running = False
            self.ambient = outer
            self._current_rank = EXTERNAL_RANK
            self.events_processed += processed
        if max_time is not None and self.now < max_time:
            self.now = max_time  # time passes even when nothing is scheduled
        return self.now

    def run_for(self, duration: float) -> float:
        """Advance the clock ``duration`` units, firing due events."""
        return self.run_until_idle(max_time=self.now + duration)

    def run_until(self, when: float) -> float:
        """Advance the clock to absolute time ``when``, firing due events."""
        if when < self.now:
            raise ValueError(f"cannot run backwards: {when} < {self.now}")
        return self.run_until_idle(max_time=when)

    # -- introspection and hooks ---------------------------------------------

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events queued, O(1)."""
        return self._live

    def __repr__(self) -> str:
        return f"Scheduler(now={self.now:.3f}, pending={self.pending})"
