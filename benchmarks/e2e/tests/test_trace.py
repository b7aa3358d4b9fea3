"""Span arithmetic, wrapper removal and absent paths."""

import itertools
import types

import trace as span_trace


def _ticking_recorder():
    ticks = itertools.count()
    return span_trace.SpanRecorder(clock=lambda: float(next(ticks)))


def test_self_time_is_duration_minus_children():
    recorder = _ticking_recorder()
    inner = recorder.wrapper(lambda: None, "lower", "fake.inner")

    def outer_body():
        inner()
        inner()

    outer = recorder.wrapper(outer_body, "upper", "fake.outer")
    recorder.begin()          # tick 0
    outer()                   # outer 1..6, inner 2..3 and 4..5
    recorder.end()            # tick 7
    summary = recorder.summarise()
    assert summary["spans"] == 3
    assert summary["root_s"] == 7.0
    assert summary["layers"]["upper"] == {"calls": 1, "self_s": 3.0}
    assert summary["layers"]["lower"] == {"calls": 2, "self_s": 2.0}
    assert summary["paths"]["fake.outer"]["total_s"] == 5.0
    # root 7 = unattributed 2 + upper 3 + lower 2
    assert summary["unattributed_s"] == 2.0
    assert recorder.durations("fake.inner") == [1.0, 1.0]
    assert list(recorder.span_parent) == [-1, 0, 0]


def test_wrapper_cost_is_subtracted_per_call():
    recorder = _ticking_recorder()
    leaf = recorder.wrapper(lambda: None, "lower", "fake.leaf")
    parent = recorder.wrapper(lambda: (leaf(), leaf()), "upper", "fake.parent")
    recorder.cost_inside, recorder.cost_outside = 0.25, 0.5
    recorder.begin()
    parent()
    recorder.end()
    layers = recorder.summarise()["layers"]
    # lower: 2 calls x (1 - 0.25); upper: 3 - 0.25 - 2 x 0.5
    assert layers["lower"]["self_s"] == 1.5
    assert layers["upper"]["self_s"] == 1.75


def test_wrap_restores_the_originals_and_lists_absent_paths():
    module = types.ModuleType("fake_layer_module")

    class Thing:
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return "build"

    class Child(Thing):
        pass

    def function():
        return "function"

    module.Thing, module.Child, module.function = Thing, Child, function
    import sys
    sys.modules["fake_layer_module"] = module
    try:
        originals = (Thing.__dict__["method"], Thing.__dict__["build"], function)
        recorder = span_trace.SpanRecorder()
        recorder.wrap([
            ("a", "fake_layer_module.Thing.method"),
            ("a", "fake_layer_module.Thing.build", lambda args: "id-1"),
            ("a", "fake_layer_module.Child.method"),
            ("b", "fake_layer_module.function"),
            ("b", "fake_layer_module.Thing.gone"),
            ("b", "no_such_module.at.all"),
        ])
        assert recorder.absent == ["fake_layer_module.Thing.gone",
                                   "no_such_module.at.all"]
        assert Thing.__dict__["method"] is not originals[0]
        assert "method" in Child.__dict__
        assert (Thing().method(), Thing.build(), module.function()) == (
            "method", "build", "function")
        assert Child().method() == "method"
        assert len(recorder.span_path) == 5   # Child.method nests Thing.method
        assert recorder.span_ident == {1: "id-1"}
        recorder.unwrap()
        assert (Thing.__dict__["method"], Thing.__dict__["build"],
                module.function) == originals
        assert "method" not in Child.__dict__
    finally:
        del sys.modules["fake_layer_module"]


def test_every_row_of_the_wrap_table_names_a_known_layer():
    assert {row[0] for row in span_trace.WRAP_TABLE} <= set(span_trace.LAYERS)


def test_calibration_leaves_no_spans_behind():
    recorder = span_trace.SpanRecorder()
    recorder.calibrate(calls=2000)
    assert len(recorder.span_path) == 0 and recorder.paths == []
    assert recorder.cost_inside >= 0.0 and recorder.cost_outside >= 0.0
