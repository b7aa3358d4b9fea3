"""One trace stack for callbacks, one for code outside the run loop.

``Scheduler.run_until_idle`` swaps ``Scheduler.ambient`` to the in-loop
stack on entry and back on exit, and the tracer reads whichever is
current: a span left open around a run call never becomes the parent of
what the callbacks trace, and a span a callback leaves open does not leak
out of the run.
"""

import pytest

from repro.net.transport import FixedLatency, Network


@pytest.fixture
def net():
    return Network(latency_model=FixedLatency(1.0), seed=3)


def test_a_span_open_around_a_run_is_not_seen_by_its_callbacks(net):
    tracer = net.obs.tracer
    seen = []

    def callback():
        seen.append(tracer.active)
        with tracer.span_if_active("inner") as span:
            seen.append(span)

    outer = tracer.start("outer")
    net.scheduler.schedule(1.0, callback)
    net.run_until_idle()
    assert seen == [False, None]
    assert tracer.current_context() == outer.context()
    tracer.finish(outer)
    assert not tracer.active


def test_a_span_a_callback_leaves_open_stays_in_the_loop(net):
    tracer = net.obs.tracer
    left = []
    net.scheduler.schedule(1.0, lambda: left.append(tracer.start("left")))
    net.run_until_idle()
    assert not tracer.active
    assert net.scheduler.ambient == []
    # the next run's callbacks still see it
    net.scheduler.schedule(1.0, lambda: left.append(tracer.current_context()))
    net.run_until_idle()
    assert left[1] == left[0].context()
