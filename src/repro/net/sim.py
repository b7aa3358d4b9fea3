"""The discrete-event scheduler that drives all simulated time.

Every latency, lease, heartbeat and movement step in the reproduction is a
callback scheduled here. The event population is sharded across
per-partition queues ("lanes"): every host is consistently assigned to one
lane (``crc32(host_id) % partitions``), each lane owns the events that
execute on its hosts, and lanes advance in **horizon rounds** bounded by a
conservative lookahead (the minimum cross-host link latency). Within a
round every lane may run all its events strictly below
``min(lane head times) + lookahead``, because any message one of those
events sends arrives at least a full lookahead later — i.e. at or beyond
the horizon, where the receiving lane has not yet advanced — so a
cross-partition message is pushed straight onto the receiving lane's heap.
One thread runs the lanes of a round one after another; lanes exist because
a partition-invariant event order is the determinism proof, not to buy
wall-clock. The default is one lane with an unbounded horizon — a single
heap popped in key order.

Determinism is the load-bearing property. Every event carries a canonical
key ``(when, origin_rank, origin_seq)``:

* ``origin_rank`` — the dense registration index of the host whose
  execution *created* the event (the sender of a delivery, the scheduling
  host of a timer), or :data:`EXTERNAL_RANK` for events created outside any
  host context;
* ``origin_seq`` — a per-origin counter, incremented on every event that
  origin creates.

Both components depend only on the originating host's own execution
history, which (by induction) is identical for every partition count — so
the key is partition-invariant, and each lane popping its heap in key
order yields the same per-host event sequence whether there is one lane or
eight. The differential harness under ``tests/parallel/`` asserts exactly
this.

Events created outside any host context — test drivers, the chaos
injector — go to a **control lane** executed as a global barrier: every
lane has quiesced strictly below the control event's time before it runs,
so it may mutate any host's state (fail a host, change drop rates)
without racing a lane. Control events sort before host events at time
ties in every partitioning.

Two runtime guards turn ordering mistakes into errors instead of silent
divergence (:class:`CausalityError`): a host may only send while its own
lane (or the control lane) is executing, and a cross-partition event may
never be injected below the current round horizon.
"""

from __future__ import annotations

import heapq
import zlib
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


def callsite(fn: Callable) -> str:
    """A stable profiling label for a callback: ``Class.method`` or qualname."""
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{getattr(fn, '__name__', 'call')}"
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    return name or repr(fn)


def timer_owner(fn: Callable) -> Optional[str]:
    """The host a timer callback is attributable to, or None.

    Resolved through the callback's bound instance: a ``host_id`` attribute
    directly (processes, components), or one level down via ``.owner`` (the
    :class:`repro.net.rpc.RequestManager` pattern). Only owner-resolvable
    timers appear in the canonical event log — anonymous closures and
    infrastructure callbacks are not per-host observables.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return None
    host = getattr(owner, "host_id", None)
    if isinstance(host, str):
        return host
    inner = getattr(owner, "owner", None)
    host = getattr(inner, "host_id", None)
    return host if isinstance(host, str) else None


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays put and is skipped when
    popped, which is O(1) and keeps the heap simple. ``_scheduler`` is the
    lane whose heap holds the timer, set only while it is live there; it
    lets :meth:`cancel` keep the pending-event counter exact without
    scanning the heap.

    ``site`` and ``created_at`` feed the optional scheduler profiler: which
    code scheduled this event, and how long it dwelt in the heap. The site
    label is formatted from ``fn`` on first read — most timers (RPC
    timeouts) are cancelled unfired and never need one. ``owner`` is the
    host the callback belongs to (see :func:`timer_owner`); it is resolved
    only when an event log is attached, and stays None otherwise.
    """

    __slots__ = ("when", "fn", "cancelled", "_site", "created_at", "owner",
                 "_scheduler")

    def __init__(self, when: float, fn: Callable, site: Optional[str] = None,
                 created_at: float = 0.0, scheduler: "Optional[_Lane]" = None):
        self.when = when
        self.fn = fn
        self.cancelled = False
        self._site = site
        self.created_at = created_at
        self.owner: Optional[str] = None
        self._scheduler = scheduler

    @property
    def site(self) -> str:
        site = self._site
        if site is None:
            site = self._site = callsite(self.fn)
        return site

    @site.setter
    def site(self, value: str) -> None:
        self._site = value

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._live -= 1
            self._scheduler = None


_INF = float("inf")

#: origin rank for events created outside any host context (setup code, the
#: chaos injector, test drivers). Sorts before every host rank, so control
#: events win time ties in every partitioning.
EXTERNAL_RANK = -1

#: profiler site label for fast-lane deliveries (no Timer handle to carry one)
_DELIVERY_SITE = "Network._deliver"


class CausalityError(RuntimeError):
    """A cross-partition event was injected outside the horizon exchange.

    Raised when code tries to smuggle work across partitions in a way that
    would be ordered differently under a different partition count: a send
    issued from a lane that does not own the sending host, or a cross-lane
    event below the current round horizon (a lookahead violation).
    """


class _Lane:
    """One event queue: a shard of hosts, or the control lane (index -1).

    Besides the heap, a lane carries the per-context ambient state that a
    single global scheduler would keep as singletons: the tracer frame
    stack, the event-log buffer and the transport's stats staging buffer.
    Staging per lane and merging in canonical lane order is what makes the
    recorded totals and traces independent of the partition count.
    """

    __slots__ = ("index", "heap", "now", "_live", "current_rank",
                 "trace_stack", "log_buffer", "stats", "processed")

    def __init__(self, index: int):
        self.index = index
        self.heap: List[tuple] = []
        self.now = 0.0
        #: live (non-cancelled) entries; Timer.cancel decrements this via
        #: its ``_scheduler`` reference
        self._live = 0
        self.current_rank = EXTERNAL_RANK
        self.trace_stack: List[Any] = []
        self.log_buffer: List[tuple] = []
        self.stats: Any = None
        self.processed = 0


class Scheduler:
    """A deterministic discrete-event loop over per-partition event queues.

    >>> sched = Scheduler()
    >>> fired = []
    >>> _ = sched.schedule(5.0, fired.append, "late")
    >>> _ = sched.schedule(1.0, fired.append, "early")
    >>> sched.run_until_idle()
    5.0
    >>> fired
    ['early', 'late']

    ``partitions=1`` (the default) is a single lane with an unbounded
    horizon — one heap, popped in key order, same-instant events of one
    origin firing in schedule order. With more lanes, each round runs the
    lanes' slices one after another on the calling thread.

    ``lookahead`` must be a positive lower bound on cross-host delivery
    latency whenever ``partitions > 1`` — the transport derives it from
    the latency model's :meth:`~repro.net.transport.LatencyModel.min_latency`.

    Heap entries are ``(when, origin_rank, origin_seq, owner_rank, timer,
    fn, args)``. ``(when, origin_rank, origin_seq)`` is the canonical,
    partition-invariant ordering key (unique, so comparison never reaches
    the callable); ``owner_rank`` is the host whose state the callback
    touches and becomes the executing context's current rank. Timers carry
    their callable and positional arguments in the entry (no closure);
    deliveries scheduled through :meth:`schedule_delivery` carry
    ``timer=None`` as well — no handle, no callsite formatting — which is
    the per-message fast path.
    """

    def __init__(self, partitions: int = 1, lookahead: float = 0.0):
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1: {partitions}")
        if partitions > 1 and lookahead <= 0.0:
            raise ValueError(
                "partitioned execution needs a positive lookahead (minimum "
                f"cross-host latency), got {lookahead!r}")
        self.partitions = partitions
        self.lookahead = lookahead
        self._lanes = [_Lane(index) for index in range(partitions)]
        self._control = _Lane(-1)
        #: the lane whose slice is executing (None outside the run loop)
        self._current_lane: Optional[_Lane] = None
        self._now = 0.0
        self._host_rank: Dict[str, int] = {}
        self._rank_lane: List[_Lane] = []
        self._origin_seq: List[int] = []
        self._external_seq = 0
        self._external_stack: List[Any] = []
        self._round_horizon = _INF
        self._round_index = 0
        self._events_processed = 0
        self._quiesce_callbacks: List[Callable[[], None]] = []
        #: optional :class:`repro.obs.profiling.SchedulerProfiler` (duck-typed
        #: ``record(site, lag, wall)``); None keeps the hot loop hook-free
        self.profiler = None
        #: optional :class:`repro.net.eventlog.EventLog`; when set, timer
        #: firings with a resolvable owner host are recorded as canonical
        #: observables (the transport records deliveries itself)
        self.event_log = None
        #: the Network this scheduler is bound to (at most one; the lanes'
        #: staging buffers flush into that network's stats)
        self.bound_network = None

    # -- topology ------------------------------------------------------------

    def register_host(self, host_id: str) -> int:
        """Assign ``host_id`` to a lane; returns its dense origin rank.

        Assignment is consistent — ``crc32(host_id) % partitions`` — so a
        host lands on the same lane in every run, and ranks follow
        registration order, which callers keep deterministic (hosts are
        added during setup).
        """
        rank = self._host_rank.get(host_id)
        if rank is not None:
            return rank
        rank = len(self._rank_lane)
        self._host_rank[host_id] = rank
        lane = self._lanes[zlib.crc32(host_id.encode("utf-8")) % self.partitions]
        self._rank_lane.append(lane)
        self._origin_seq.append(0)
        return rank

    def lane_of(self, host_id: str) -> int:
        """The lane index ``host_id`` is sharded onto."""
        return self._rank_lane[self._host_rank[host_id]].index

    def contexts(self) -> List[_Lane]:
        """Control lane first, then host lanes — the canonical merge order
        for log buffers and stats staging (control events run before host
        events at time ties, so their records must concatenate first)."""
        return [self._control] + self._lanes

    # -- time and context ----------------------------------------------------

    @property
    def now(self) -> float:
        """Lane-local clock inside a callback, global clock outside."""
        lane = self._current_lane
        return self._now if lane is None else lane.now

    @property
    def current_context(self) -> Optional[_Lane]:
        """The executing lane (None outside the run loop)."""
        return self._current_lane

    @property
    def round_index(self) -> int:
        """Monotone count of horizon rounds and control barriers executed.

        Two accesses with different round indices are separated by a
        global barrier; the LaneSan sanitizer uses this to scope its
        same-round conflict window."""
        return self._round_index

    def _next_seq(self, rank: int) -> int:
        if rank < 0:
            seq = self._external_seq
            self._external_seq = seq + 1
        else:
            seq = self._origin_seq[rank]
            self._origin_seq[rank] = seq + 1
        return seq

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args, **kwargs) -> Timer:
        """Run ``fn(*args, **kwargs)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args, **kwargs)

    def schedule_at(self, when: float, fn: Callable, *args, **kwargs) -> Timer:
        """Run ``fn(*args, **kwargs)`` at absolute simulated time ``when``.

        From inside a host callback the timer stays on that host's lane
        (keyed by the host's rank); from control or external context it
        goes to the control lane and runs as a global barrier.
        """
        lane = self._current_lane
        base = self._now if lane is None else lane.now
        if when < base:
            raise ValueError(f"cannot schedule in the past: {when} < {base}")
        if lane is None or lane.index < 0 or lane.current_rank < 0:
            rank, target = EXTERNAL_RANK, self._control
        else:
            rank, target = lane.current_rank, lane
        # the handle keeps the *original* callable: site and owner are
        # attributed to it, not to the keyword-binding partial
        timer = Timer(when, fn, created_at=base, scheduler=target)
        if self.event_log is not None:
            timer.owner = timer_owner(fn)
        heapq.heappush(target.heap,
                       (when, rank, self._next_seq(rank), rank, timer,
                        partial(fn, **kwargs) if kwargs else fn, args))
        target._live += 1
        return timer

    def call_soon(self, fn: Callable, *args, **kwargs) -> Timer:
        """Run a callback at the current instant, after pending same-time events."""
        return self.schedule(0.0, fn, *args, **kwargs)

    def schedule_periodic(self, interval: float, fn: Callable) -> Timer:
        """Run ``fn()`` every ``interval`` units until the returned timer is
        cancelled. The handle returned stays valid across re-arms."""
        if interval <= 0:
            raise ValueError(f"non-positive interval: {interval}")
        site = f"{callsite(fn)}[periodic]"
        handle = Timer(self.now + interval, fn, site=site,
                       created_at=self.now)

        def tick():
            if handle.cancelled:
                return
            fn()
            if not handle.cancelled:
                inner = self.schedule(interval, tick)
                inner.site = site
                handle.when = inner.when

        inner = self.schedule(interval, tick)
        inner.site = site
        handle.when = inner.when
        return handle

    def schedule_delivery(self, source_host: str, target_host: str,
                          delay: float, fn: Callable, *args) -> None:
        """Transport fast path: run ``fn(*args)`` on the target host's lane.

        The canonical key uses the *sender's* rank and counter — both
        functions of the sender's own execution history, hence partition-
        invariant. No Timer handle is minted (deliveries are never
        cancelled), so the entry is a bare heap tuple.

        Raises :class:`CausalityError` when the sending host does not
        belong to the executing lane, or when a cross-lane delivery would
        land below the current round horizon (a lookahead violation).
        """
        src_rank = self._host_rank[source_host]
        tgt_rank = self._host_rank[target_host]
        lane = self._current_lane
        if lane is None:
            base = self._now
        else:
            base = lane.now
            if lane.index >= 0 and self._rank_lane[src_rank] is not lane:
                raise CausalityError(
                    f"send from host {source_host!r} (lane "
                    f"{self._rank_lane[src_rank].index}) issued while lane "
                    f"{lane.index} was executing; cross-partition sends must "
                    "go through the horizon exchange")
        when = base + delay
        target = self._rank_lane[tgt_rank]
        entry = (when, src_rank, self._next_seq(src_rank), tgt_rank, None,
                 fn, args)
        if lane is not None and lane.index >= 0 and target is not lane:
            if when < self._round_horizon:
                raise CausalityError(
                    f"cross-partition delivery at t={when:.6f} below the "
                    f"round horizon {self._round_horizon:.6f}; the latency "
                    "model broke its min_latency() promise")
        heapq.heappush(target.heap, entry)
        target._live += 1

    # -- running -------------------------------------------------------------

    def run_until_idle(self, max_time: Optional[float] = None,
                       max_events: int = 10_000_000) -> float:
        """Drain all lanes in horizon rounds; returns the final time.

        ``max_time`` bounds how far the clock may advance (events beyond it
        stay queued); ``max_events`` is a runaway guard. Quiesce callbacks
        (stats staging flushes) run just before returning, so observers
        see merged totals.
        """
        processed = 0
        lanes = self._lanes
        control = self._control
        single = self.partitions == 1
        stop = _INF if max_time is None else max_time
        while True:
            t_ctl = control.heap[0][0] if control.heap else _INF
            t_lanes = _INF
            for lane in lanes:
                if lane.heap and lane.heap[0][0] < t_lanes:
                    t_lanes = lane.heap[0][0]
            t_min = t_ctl if t_ctl < t_lanes else t_lanes
            if t_min == _INF or t_min > stop:
                break
            self._round_index += 1
            budget = max_events - processed
            if t_ctl <= t_lanes:
                # control events are global barriers: every lane has
                # quiesced strictly below t_ctl, so the callback may touch
                # any host's state. One at a time — what it sends or
                # schedules onto a lane may be due before the next one.
                processed += self._run_lane_slice(
                    control, _INF, t_lanes if t_lanes < stop else stop, 1)
            else:
                horizon = _INF if single else t_lanes + self.lookahead
                if t_ctl < horizon:
                    horizon = t_ctl
                self._round_horizon = horizon
                try:
                    for lane in lanes:
                        if lane.heap:
                            processed += self._run_lane_slice(
                                lane, horizon, stop, budget)
                finally:
                    self._round_horizon = _INF
            if processed >= max_events:
                raise RuntimeError(
                    f"scheduler exceeded {max_events} events; runaway loop?")
        self._events_processed += processed
        final = self._now
        for lane in lanes:
            if lane.now > final:
                final = lane.now
        if control.now > final:
            final = control.now
        if max_time is not None and final < max_time:
            final = max_time  # time passes even when nothing is scheduled
        self._now = final
        # remaining events are all beyond `final`, so raising every lane
        # clock to it keeps per-lane time monotone across run_* calls
        for lane in lanes:
            lane.now = final
        control.now = final
        for callback in self._quiesce_callbacks:
            callback()
        return final

    def run_for(self, duration: float) -> float:
        """Advance the clock ``duration`` units, firing due events."""
        return self.run_until_idle(max_time=self.now + duration)

    def run_until(self, when: float) -> float:
        """Advance the clock to absolute time ``when``, firing due events."""
        if when < self.now:
            raise ValueError(f"cannot run backwards: {when} < {self.now}")
        return self.run_until_idle(max_time=when)

    def _run_lane_slice(self, lane: _Lane, horizon: float, stop: float,
                        budget: int) -> int:
        """Run up to ``budget`` events of ``lane`` strictly below ``horizon``
        (and not beyond ``stop``), in canonical key order. Called once per
        lane per round, or for one control event."""
        heap = lane.heap
        profiler = self.profiler
        log = self.event_log
        heappop = heapq.heappop
        count = 0
        self._current_lane = lane
        try:
            while heap and count < budget:
                entry = heap[0]
                when = entry[0]
                if when >= horizon or when > stop:
                    break
                heappop(heap)
                timer = entry[4]
                if timer is not None:
                    if timer.cancelled:
                        continue
                    # it fires now: a late cancel() on the handle must not
                    # decrement the live counter
                    timer._scheduler = None
                    if log is not None and timer.owner is not None:
                        lane.log_buffer.append(
                            (when, timer.owner, "timer", timer.site))
                lane._live -= 1
                lane.now = when
                lane.current_rank = entry[3]
                fn = entry[5]
                if profiler is None:
                    fn(*entry[6])
                else:
                    started = perf_counter()
                    fn(*entry[6])
                    wall = perf_counter() - started
                    if timer is None:
                        profiler.record(_DELIVERY_SITE, 0.0, wall)
                    else:
                        profiler.record(timer.site,
                                        when - timer.created_at, wall)
                count += 1
        finally:
            self._current_lane = None
        lane.processed += count
        return count

    # -- introspection and hooks ---------------------------------------------

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events queued across all lanes (O(lanes))."""
        total = self._control._live
        for lane in self._lanes:
            total += lane._live
        return total

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def on_quiesce(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the end of every ``run_*`` drain (after the
        last event, before returning). The transport uses this to merge
        per-lane stats staging buffers deterministically."""
        self._quiesce_callbacks.append(callback)

    def ambient_stack(self) -> List[Any]:
        """The tracer frame stack for the current execution context — one
        per lane plus one for code outside the run loop, so ambient trace
        context never leaks from one context into another's callbacks
        (see :attr:`repro.obs.tracing.Tracer.stack_provider`)."""
        lane = self._current_lane
        return self._external_stack if lane is None else lane.trace_stack

    def current_log_buffer(self) -> List[tuple]:
        """The event-log staging buffer for the current context."""
        lane = self._current_lane
        return self._control.log_buffer if lane is None else lane.log_buffer

    def log_buffers(self) -> List[List[tuple]]:
        """All staging buffers in canonical merge order (control first)."""
        return [lane.log_buffer for lane in self.contexts()]

    def __repr__(self) -> str:
        return (f"Scheduler(partitions={self.partitions}, "
                f"now={self._now:.3f}, pending={self.pending})")
