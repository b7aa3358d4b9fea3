"""Span lifecycle, ambient context, trace structure, store bounds."""

import pytest

from repro.obs.tracing import SPAN_KEY, TRACE_KEY, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpanLifecycle:
    def test_span_records_simulated_times(self, tracer, clock):
        span = tracer.start("work")
        clock.now = 3.5
        tracer.finish(span)
        assert span.start == 0.0
        assert span.end == 3.5
        assert span.duration == 3.5

    def test_duration_none_while_open(self, tracer):
        span = tracer.start("work")
        assert not span.closed
        assert span.duration is None

    def test_end_is_idempotent(self, tracer, clock):
        span = tracer.start("work")
        clock.now = 1.0
        tracer.end(span)
        clock.now = 9.0
        tracer.end(span)
        assert span.end == 1.0

    def test_nested_spans_share_trace_and_parent(self, tracer):
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        tracer.finish(inner)
        tracer.finish(outer)

    def test_context_manager_closes_on_exception(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("risky") as span:
                clock.now = 2.0
                raise RuntimeError("boom")
        assert span.closed
        assert not tracer.active

    def test_leave_keeps_span_open_for_deferred_end(self, tracer, clock):
        span = tracer.start("rpc")
        tracer.leave(span)
        assert not tracer.active  # no longer ambient
        assert not span.closed    # but still running
        clock.now = 7.0
        tracer.end(span)
        assert span.duration == 7.0

    def test_attributes_settable_after_start(self, tracer):
        span = tracer.start("work", a=1)
        span.set(b=2)
        assert span.attributes == {"a": 1, "b": 2}


class TestSpanIfActive:
    def test_yields_none_outside_any_trace(self, tracer):
        with tracer.span_if_active("hot-path") as span:
            assert span is None
        assert tracer.traces() == []

    def test_joins_enclosing_trace(self, tracer):
        with tracer.span("root") as root:
            with tracer.span_if_active("hot-path") as span:
                assert span is not None
                assert span.trace_id == root.trace_id


class TestAmbientContext:
    def test_current_context_names_top_span(self, tracer):
        span = tracer.start("work")
        context = tracer.current_context()
        assert context == {TRACE_KEY: span.trace_id, SPAN_KEY: span.span_id}

    def test_activate_parents_new_spans_remotely(self, tracer):
        origin = tracer.start("origin")
        context = tracer.current_context()
        tracer.finish(origin)
        with tracer.activate(context):
            child = tracer.start("remote-side")
            tracer.finish(child)
        assert child.trace_id == origin.trace_id
        assert child.parent_id == origin.span_id

    def test_activate_none_is_noop(self, tracer):
        with tracer.activate(None):
            assert not tracer.active

    def test_activate_unwinds_on_exception(self, tracer):
        context = {TRACE_KEY: "t1", SPAN_KEY: "s1"}
        with pytest.raises(ValueError):
            with tracer.activate(context):
                raise ValueError("boom")
        assert not tracer.active


class TestTraceStructure:
    def _build(self, tracer, clock):
        with tracer.span("root"):
            with tracer.span("a"):
                clock.now = 1.0
            with tracer.span("b"):
                clock.now = 2.0
        return tracer.traces()[0]

    def test_connected_single_root(self, tracer, clock):
        trace = self._build(tracer, clock)
        assert trace.is_connected()
        assert trace.root().name == "root"
        assert trace.depth() == 2

    def test_find_and_children(self, tracer, clock):
        trace = self._build(tracer, clock)
        root = trace.root()
        assert {span.name for span in trace.children(root.span_id)} == {"a", "b"}
        assert len(trace.find("a")) == 1

    def test_two_roots_not_connected(self, tracer):
        first = tracer.start("one")
        tracer.finish(first)
        orphan = tracer.start("two")
        tracer.finish(orphan)
        # separate traces, each trivially connected
        assert all(trace.is_connected() for trace in tracer.traces())
        assert len(tracer.traces()) == 2

    def test_find_spans_across_traces(self, tracer):
        for _ in range(3):
            tracer.finish(tracer.start("repair"))
        assert len(tracer.find_spans("repair")) == 3


class TestStoreBounds:
    def test_trace_eviction_oldest_first(self, clock):
        tracer = Tracer(clock, max_traces=2)
        spans = []
        for index in range(3):  # three separate root traces
            span = tracer.start(f"op{index}")
            tracer.finish(span)
            spans.append(span)
        assert tracer.evicted_traces == 1
        assert tracer.trace(spans[0].trace_id) is None
        assert tracer.trace(spans[2].trace_id) is not None

    def test_span_cap_per_trace(self, clock):
        tracer = Tracer(clock, max_spans_per_trace=5)
        with tracer.span("root"):
            for index in range(10):
                with tracer.span(f"child{index}"):
                    pass
        assert tracer.dropped_spans == 6
        assert len(tracer.traces()[0]) == 5
