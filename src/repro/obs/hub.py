"""The per-deployment observability bundle.

One :class:`Observability` instance rides on each
:class:`~repro.net.transport.Network` (as ``network.obs``): a metrics
registry and a tracer clocked by the network's scheduler. Components reach
it through their process's network, so a whole deployment — Context
Servers, overlay nodes, mediators, entities — records into one coherent
place.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class Observability:
    """Metrics + tracing for one deployment."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=lambda: scheduler.now)
        # One ambient stack for callbacks, one for code outside the run
        # loop, so trace context never leaks in from around a run call.
        self.tracer.home = scheduler

    def __repr__(self) -> str:
        return (f"Observability(metrics={len(self.metrics)}, "
                f"traces={len(self.tracer.traces())})")
