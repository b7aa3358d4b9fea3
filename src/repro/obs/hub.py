"""The per-deployment observability bundle.

One :class:`Observability` instance rides on each
:class:`~repro.net.transport.Network` (as ``network.obs``): a metrics
registry, a tracer clocked by the network's scheduler, and a scheduler
profiler. Components reach it through their process's network, so a whole
deployment — Context Servers, overlay nodes, mediators, entities — records
into one coherent place.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import SchedulerProfiler
from repro.obs.tracing import Tracer


class Observability:
    """Metrics + tracing + scheduler profiling for one deployment."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=lambda: scheduler.now)
        self.profiler = SchedulerProfiler()
        # Attach to the scheduler unless someone installed a profiler first.
        if scheduler.profiler is None:
            scheduler.profiler = self.profiler
        # One ambient stack for callbacks, one for code outside the run
        # loop, so trace context never leaks in from around a run call.
        self.tracer.stack_provider = scheduler.ambient_stack

    def __repr__(self) -> str:
        return (f"Observability(metrics={len(self.metrics)}, "
                f"traces={len(self.tracer.traces())}, "
                f"events={self.profiler.events})")
