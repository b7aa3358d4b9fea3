"""Unit tests for the operator-graph engine: dedup, refcounts, semantics.

The differential harness proves end-to-end equivalence; these tests pin
the engine's internal contracts — structural sharing, walk-count
refcounting, classic-order fan-out, operator behaviour — so a regression
fails here with a one-node reproduction instead of a diverging log diff.
"""

from __future__ import annotations

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import (AndFilter, AttributeFilter, SubjectFilter,
                                  TypeFilter)
from repro.query.opgraph import (OperatorGraph, OpSpecError, compile_query,
                                 filter_op, join_op, select_op, window_op)

GUIDS = GuidFactory(seed=99)
SOURCE = GUIDS.mint()


def make_event(type_name="temperature", subject="room-0", value=1,
               timestamp=0.0, **attributes):
    return ContextEvent(TypeSpec(type_name, "raw", subject), value,
                        SOURCE, timestamp, attributes)


@pytest.fixture()
def graph():
    log = []
    g = OperatorGraph(lambda sub_id, event: log.append((sub_id, event)))
    g.log = log
    return g


def lookalike(reverse=False):
    parts = [TypeFilter("temperature"), AttributeFilter("floor", "==", 3)]
    if reverse:
        parts.reverse()
    return filter_op(AndFilter(parts))


# -- structural sharing and refcounts -----------------------------------------


def test_spec_identical_plans_share_one_node(graph):
    graph.attach(1, lookalike())
    graph.attach(2, lookalike(reverse=True))
    assert graph.node_count == 1
    assert graph.nodes_created == 1
    assert graph.reuse_hits == 1
    assert graph.reuse_ratio() == 0.5


def test_refcounted_reclamation(graph):
    for sub_id in (1, 2, 3):
        graph.attach(sub_id, lookalike())
    graph.detach(1)
    graph.detach(2)
    assert graph.node_count == 1  # sub 3 still holds the node
    graph.publish(make_event(floor=3))
    assert [sub_id for sub_id, _ in graph.log] == [3]
    graph.detach(3)
    assert graph.node_count == 0
    graph.log.clear()
    graph.publish(make_event(floor=3))
    assert graph.log == []  # reclaimed: root index entry gone too
    assert graph.detach(3) is False


def test_composite_plans_share_subtrees(graph):
    base = filter_op(TypeFilter("co2"))
    graph.attach(1, window_op(base, agg="count", width=10.0))
    graph.attach(2, window_op(base, agg="avg", width=10.0))
    graph.attach(3, base)
    # one filter leaf shared by three plans + two distinct window nodes
    assert graph.node_count == 3
    assert graph.reuse_hits == 2
    graph.detach(1)
    graph.detach(2)
    assert graph.node_count == 1  # both windows reclaimed, leaf survives


def test_reattach_same_sub_replaces_plan(graph):
    graph.attach(1, filter_op(TypeFilter("temperature")))
    graph.attach(1, filter_op(TypeFilter("co2")))
    assert graph.node_count == 1
    graph.publish(make_event("co2"))
    graph.publish(make_event("temperature"))
    assert [event.type_name for _, event in graph.log] == ["co2"]


def test_fanout_orders_by_sub_id(graph):
    for sub_id in (9, 2, 5):
        graph.attach(sub_id, filter_op(TypeFilter("temperature")))
    graph.publish(make_event())
    assert [sub_id for sub_id, _ in graph.log] == [2, 5, 9]


# -- operator semantics --------------------------------------------------------


def test_join_pairs_latest_per_subject(graph):
    plan = join_op(filter_op(TypeFilter("temperature")),
                   filter_op(TypeFilter("presence")))
    graph.attach(1, plan)
    graph.publish(make_event("temperature", "room-1", value=20))
    assert graph.log == []  # right side empty
    graph.publish(make_event("presence", "room-1", value="bob"))
    graph.publish(make_event("temperature", "room-1", value=22))
    values = [event.value for _, event in graph.log]
    assert values == [{"left": 20, "right": "bob"},
                      {"left": 22, "right": "bob"}]
    assert all(event.type_name == "opgraph-join" for _, event in graph.log)


def test_join_is_not_commutative():
    left = filter_op(TypeFilter("a"))
    right = filter_op(TypeFilter("b"))
    assert (join_op(left, right).canonical_key()
            != join_op(right, left).canonical_key())


def test_select_min_with_predicate_and_reelection(graph):
    plan = select_op(filter_op(TypeFilter("printer")), mode="min",
                     key="distance", where=AttributeFilter("free", "==", True))
    graph.attach(1, plan)
    graph.publish(make_event("printer", "p1", distance=5, free=True))
    graph.publish(make_event("printer", "p2", distance=2, free=True))
    graph.publish(make_event("printer", "p2", distance=2, free=False))
    winners = [event.subject for _, event in graph.log]
    # p1 wins, p2 takes over, p2 disqualified -> p1 re-elected
    assert winners == ["p1", "p2", "p1"]


def test_select_tie_breaks_on_subject_token(graph):
    plan = select_op(filter_op(TypeFilter("printer")), mode="max", key="speed")
    graph.attach(1, plan)
    graph.publish(make_event("printer", "p9", speed=10))
    graph.publish(make_event("printer", "p1", speed=10))
    winners = [event.subject for _, event in graph.log]
    assert winners == ["p9", "p1"]  # equal speed: lexically smaller subject


def test_select_silent_while_nobody_qualifies(graph):
    plan = select_op(filter_op(TypeFilter("printer")), mode="min",
                     key="distance", where=AttributeFilter("free", "==", True))
    graph.attach(1, plan)
    graph.publish(make_event("printer", "p1", distance=5, free=False))
    graph.publish(make_event("printer", "p2", free=True))  # key missing
    assert graph.log == []


def test_window_count_and_boundary_event(graph):
    plan = window_op(filter_op(TypeFilter("temperature")), agg="count",
                     width=10.0)
    graph.attach(1, plan)
    graph.publish(make_event(timestamp=1.0))
    graph.publish(make_event(timestamp=9.5))
    # exactly on the boundary: closes [0,10) first, lands in [10,20)
    graph.publish(make_event(timestamp=10.0))
    assert [(e.value, e.timestamp) for _, e in graph.log] == [(2, 10.0)]
    graph.publish(make_event(timestamp=25.0))
    closed = [(e.value, e.timestamp) for _, e in graph.log]
    assert closed == [(2, 10.0), (1, 20.0)]  # [10,20) held the boundary event


def test_window_avg_skips_non_numeric_samples(graph):
    plan = window_op(filter_op(TypeFilter("t")), agg="avg", width=10.0,
                     key="reading")
    graph.attach(1, plan)
    graph.publish(make_event("t", timestamp=1.0, reading=4.0))
    graph.publish(make_event("t", timestamp=2.0, reading="broken"))
    graph.publish(make_event("t", timestamp=3.0, reading=8.0))
    graph.publish(make_event("t", timestamp=11.0, reading=1.0))
    (sub, out), = graph.log
    assert out.value == 6.0
    assert out.attributes["count"] == 2


def test_window_roll_fires_on_any_publish(graph):
    graph.attach(1, window_op(filter_op(TypeFilter("t")), agg="count",
                              width=10.0))
    graph.attach(2, filter_op(TypeFilter("other")))
    graph.publish(make_event("t", timestamp=1.0))
    # an unrelated event's timestamp still advances the window clock
    graph.publish(make_event("other", timestamp=30.0))
    values = [e.value for s, e in graph.log if s == 1]
    assert values == [1]


# -- compilation and analysis --------------------------------------------------


def test_compile_canonicalises_filter_order():
    a = compile_query({"op": "and", "parts": [
        {"op": "type", "type": "t", "representation": None},
        {"op": "attr", "key": "floor", "cmp": "==", "constant": 1}]})
    b = compile_query({"op": "and", "parts": [
        {"op": "attr", "key": "floor", "cmp": "==", "constant": 1},
        {"op": "type", "type": "t", "representation": None}]})
    assert a.canonical_key() == b.canonical_key()


def test_compile_auto_wraps_bare_filter_spec():
    plan = compile_query({"op": "type", "type": "t", "representation": None})
    assert plan.op == "filter"
    assert plan.canonical_key() == filter_op(TypeFilter("t")).canonical_key()


def test_compile_rejects_unknown_op():
    with pytest.raises(OpSpecError):
        compile_query({"op": "teleport"})
    with pytest.raises(OpSpecError):
        compile_query("not a dict")


@pytest.mark.parametrize("spec", [
    {"op": "window", "agg": "avg"},                      # no source
    {"op": "window", "agg": "avg", "width": "wide",
     "source": {"op": "all"}},                           # width not a number
    {"op": "window", "agg": "count", "width": 5.0, "key": ["floor"],
     "source": {"op": "all"}},                           # key not a string
    {"op": "select", "mode": "min", "source": {"op": "all"}},  # no key
    {"op": "join", "left": {"op": "all"}},               # no right side
    {"op": "filter"},                                    # no filter
    {"op": "type"},                                      # bare filter, no type
    {"op": "window", "agg": "count", "width": 5.0,
     "source": {"op": "window"}},                        # nested, no fields
])
def test_compile_malformed_field_is_an_opspec_error(spec):
    with pytest.raises(OpSpecError):
        compile_query(spec)


def test_attach_constraints_passthrough_and_join_merge(graph):
    exact = filter_op(AndFilter([TypeFilter("t"), SubjectFilter("room-1")]))
    constraints = graph.attach(1, window_op(exact, agg="count", width=5.0))
    assert constraints.type_name == "t"  # a window passes its input's through
    assert constraints.subject == "room-1"
    merged = graph.attach(2, join_op(exact, filter_op(TypeFilter("t"))))
    assert merged.type_name == "t"  # both sides agree on the type
    assert not merged.has_subject  # only one side pins the subject
    disjoint = graph.attach(
        3, join_op(filter_op(TypeFilter("a")), filter_op(TypeFilter("b"))))
    assert disjoint.type_name is None
