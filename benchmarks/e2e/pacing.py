"""Calibrated seconds: host time scaled by the machine's speed right then.

The benchmark runs on small shared virtual machines whose speed drifts by a
quarter and more within seconds (neighbours contending for cache and memory
bandwidth), which no amount of repeats inside one run averages away. So the
host clock is calibrated while it is read: every few milliseconds of
measured work the ``Pacer`` runs one *reference slice* — a fixed piece of
pointer-chasing, allocating, heap-pushing Python with the same appetite for
cache and memory as the simulator — on the same thread and core, and times
it. A phase costs

    calibrated_s = work_s x NOMINAL_SLICE_S / median slice time in that phase

i.e. its wall time on a machine that runs the reference slice in exactly
``NOMINAL_SLICE_S``. Work and slices share the same milliseconds, so a
slow-down of the machine stretches both and cancels. The slices' own time is
never counted as work, and the garbage collector is held off while a slice
runs: a collection the program's allocations made due is the program's cost.

(Sampling the slices from a second thread was tried and calibrates worse:
the sampler lands on the other core, whose speed is not this core's.)

The reference kernel is the benchmark's, not the program's: a change under
``src/`` cannot make it faster. It is also why ``peak_rss_mb`` includes the
kernel's fixed working set.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter
from typing import List, Optional, Tuple

#: one calibrated second is the time the reference kernel needs for
#: ``1 / NOMINAL_SLICE_S`` slices (on the machine the benchmark was written
#: on, a slice takes about this long, so calibrated and wall seconds are close)
NOMINAL_SLICE_S = 0.0005

Reading = Tuple[float, int]             # cumulative work_s, slices so far


class Reference:
    """The reference kernel and its fixed working set (about 35 MB)."""

    def __init__(self, objects: int = 100_000, steps: int = 600):
        self._objects = [{"k": i, "v": (i, str(i))} for i in range(objects)]
        self._steps = steps
        self._position = 0

    def slice(self) -> float:
        """Run one slice; returns the seconds it took."""
        objects, position, heap = self._objects, self._position, []
        count = len(objects)
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        for step in range(self._steps):
            position = (position * 1103515245 + 12345) % count
            entry = objects[position]
            heapq.heappush(heap, (entry["k"], step))
            entry["v"] = (entry["v"][0] + 1, entry["v"][1])
        while len(heap) > self._steps // 2:
            heapq.heappop(heap)
        took = perf_counter() - started
        if collecting:
            gc.enable()
        self._position = position
        return took


class Pacer:
    """Interleaves reference slices with the measured work.

    ``tick()`` is called wherever the driver regains control (after every
    simulation step, operation or sub-step) and runs a slice when ``gap``
    seconds of work have passed since the last one. With no reference (the
    traced repeat, which reports raw span times, and the self-tests) no
    slice is run and calibrated equals wall.
    """

    def __init__(self, reference: Optional[Reference] = None,
                 gap: float = 0.005):
        self.reference = reference
        self.gap = gap
        self.work_s = 0.0
        #: seconds each slice took, in order
        self.slice_times: List[float] = []
        self._mark = perf_counter()

    def tick(self) -> None:
        now = perf_counter()
        if now - self._mark >= self.gap:
            self._slice(now)

    def _slice(self, now: float) -> None:
        self.work_s += now - self._mark
        if self.reference is not None:
            self.slice_times.append(self.reference.slice())
            now = perf_counter()
        self._mark = now

    def reading(self) -> Reading:
        """Close the running stretch of work with a slice; cumulative totals."""
        self._slice(perf_counter())
        return self.work_s, len(self.slice_times)

    def speed(self, before: Reading, after: Reading) -> float:
        """Nominal over median slice time between two readings (1 = nominal
        machine, below 1 = slower). The median shrugs off the odd slice a
        host hiccup lands in."""
        window = self.slice_times[before[1]:after[1]]
        return NOMINAL_SLICE_S / statistics.median(window) if window else 1.0

    def calibrated(self, before: Reading, after: Reading,
                   around: Optional[Tuple[Reading, Reading]] = None
                   ) -> Tuple[float, float]:
        """``(calibrated_s, raw work_s)`` between two readings; the speed may
        be taken over a wider stretch ``around`` them."""
        work = after[0] - before[0]
        return work * self.speed(*(around or (before, after))), work
