"""Unit tests for the shared filter table: dedup, reclamation, fan-out.

The differential harness proves end-to-end equivalence; these tests pin
the table's internal contracts — structural sharing, reclamation with the
last sink, classic-order fan-out — so a regression fails here with a
one-node reproduction instead of a diverging log diff.
"""

from __future__ import annotations

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import (AndFilter, AttributeFilter, SubjectFilter,
                                  TypeFilter)
from repro.query.opgraph import OperatorGraph

GUIDS = GuidFactory(seed=99)
SOURCE = GUIDS.mint()


def make_event(type_name="temperature", subject="room-0", value=1,
               timestamp=0.0, **attributes):
    return ContextEvent(TypeSpec(type_name, "raw", subject), value,
                        SOURCE, timestamp, attributes)


@pytest.fixture()
def graph():
    log = []
    g = OperatorGraph(lambda sub_ids, event: log.extend(
        (sub_id, event) for sub_id in sub_ids))
    g.log = log
    return g


def lookalike(reverse=False):
    parts = [TypeFilter("temperature"), AttributeFilter("floor", "==", 3)]
    if reverse:
        parts.reverse()
    return AndFilter(parts)


def test_spec_identical_plans_share_one_node(graph):
    graph.attach(1, lookalike())
    graph.attach(2, lookalike(reverse=True))
    assert graph.stats()["nodes"] == 1
    assert graph.nodes_created == 1
    assert graph.reuse_hits == 1
    assert graph.reuse_ratio() == 0.5
    graph.publish(make_event(floor=3))
    assert graph.evals == 1  # one match for both subscriptions
    assert [sub_id for sub_id, _ in graph.log] == [1, 2]


def test_refcounted_reclamation(graph):
    for sub_id in (1, 2, 3):
        graph.attach(sub_id, lookalike())
    graph.detach(1)
    graph.detach(2)
    assert graph.stats()["nodes"] == 1  # sub 3 still holds the node
    graph.publish(make_event(floor=3))
    assert [sub_id for sub_id, _ in graph.log] == [3]
    graph.detach(3)
    stats = graph.stats()
    assert (stats["nodes"], stats["indexed_nodes"]) == (0, 0)
    graph.log.clear()
    graph.publish(make_event(floor=3))
    assert graph.log == []  # reclaimed: bucket entry gone too
    assert graph.detach(3) is False


def test_reattach_same_sub_replaces_plan(graph):
    graph.attach(1, TypeFilter("temperature"))
    graph.attach(1, TypeFilter("co2"))
    assert graph.stats()["nodes"] == 1
    graph.publish(make_event("co2"))
    graph.publish(make_event("temperature"))
    assert [event.type_name for _, event in graph.log] == ["co2"]


def test_fanout_orders_by_sub_id(graph):
    graph.attach(9, TypeFilter("temperature"))
    graph.attach(2, SubjectFilter("room-0"))
    graph.attach(5, TypeFilter("temperature"))
    graph.publish(make_event())
    assert [sub_id for sub_id, _ in graph.log] == [2, 5, 9]


def test_attach_returns_type_constraint(graph):
    exact = AndFilter([TypeFilter("t"), SubjectFilter("room-1")])
    assert graph.attach(1, exact) == "t"
    shared = AndFilter([SubjectFilter("room-1"), TypeFilter("t")])
    assert graph.attach(2, shared) == "t"  # the shared node's constraint
    assert graph.stats()["nodes"] == 1
    assert graph.attach(3, SubjectFilter("room-1")) is None
    assert graph.attach(4, AttributeFilter("floor", "==", 1)) is None
    assert [graph.type_constraint(sub_id) for sub_id in (1, 2, 3, 4)] == \
        ["t", "t", None, None]
