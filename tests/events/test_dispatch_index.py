"""The filter table's dispatch buckets: where a filter is filed, bucket
maintenance, mediator wiring.

Where a filter is filed shows through the table's ``stats()`` and the
``evals`` a publish costs: a filed node is evaluated only by publishes
carrying its constraint, a residual one by every publish.
"""

import pytest

from repro.core.types import TypeSpec
from repro.events import mediator as mediator_module
from repro.events.event import ContextEvent
from repro.events.filters import (
    AndFilter,
    AttributeFilter,
    MatchAll,
    NotFilter,
    OrFilter,
    SourceFilter,
    SubjectFilter,
    TypeFilter,
)
from repro.events.mediator import EventMediator
from repro.obs.metrics import MetricsRegistry
from repro.query.opgraph import OperatorGraph
from tests.events.reference_scan import ReferenceScanMediator
from tests.events.sinks import acking_sink


def event(guids, type_name="location", subject="bob", source=None,
          representation="repr"):
    return ContextEvent(TypeSpec(type_name, representation, subject), 1,
                        source or guids.mint(), 0.0)


def table():
    """A filter table logging each delivered ``sub_id``."""
    log = []
    registry = MetricsRegistry()
    graph = OperatorGraph(lambda sub_ids, _event: log.extend(sub_ids),
                          metrics=registry)
    graph.log, graph.registry = log, registry
    return graph


def evals(graph, published):
    """How many nodes ``published`` made the table evaluate."""
    before = graph.evals
    graph.publish(published)
    return graph.evals - before


def filed(event_filter):
    """A table holding one node, for ``event_filter``; returns the table
    and the type constraint ``attach`` answered with."""
    graph = table()
    return graph, graph.attach(1, event_filter)


def placement(graph):
    stats = graph.stats()
    return stats["indexed_nodes"], stats["residual_nodes"]


class TestFilterAnalysis:
    def test_type_filter_yields_type_constraint(self, guids):
        graph, type_name = filed(TypeFilter("location"))
        assert type_name == "location"
        assert placement(graph) == (1, 0)
        assert evals(graph, event(guids)) == 1
        assert evals(graph, event(guids, type_name="presence")) == 0
        assert graph.log == [1]

    def test_representation_narrowing_still_indexes_by_type(self, guids):
        graph, type_name = filed(TypeFilter("location", "symbolic"))
        assert type_name == "location"
        assert placement(graph) == (1, 0)
        # a candidate for every location event, matched on representation
        assert evals(graph, event(guids, representation="raw")) == 1
        assert evals(graph, event(guids, representation="symbolic")) == 1
        assert evals(graph, event(guids, type_name="presence")) == 0
        assert graph.log == [1]

    def test_subject_filter_yields_subject_constraint(self, guids):
        graph, type_name = filed(SubjectFilter("bob"))
        assert type_name is None
        assert placement(graph) == (1, 0)
        assert evals(graph, event(guids, type_name="presence")) == 1
        assert evals(graph, event(guids, subject="john")) == 0

    def test_conjunction_unions_constraints(self, guids):
        graph, type_name = filed(
            AndFilter([TypeFilter("location"), SubjectFilter("bob"),
                       AttributeFilter("value", "==", 3)]))
        assert type_name == "location"
        assert placement(graph) == (1, 0)
        # filed under (type, subject): both must be carried
        assert evals(graph, event(guids)) == 1
        assert evals(graph, event(guids, subject="john")) == 0
        assert evals(graph, event(guids, type_name="presence")) == 0

    def test_source_filter_yields_source_constraint(self, guids):
        source = guids.mint()
        graph, type_name = filed(SourceFilter(source.hex))
        assert type_name is None
        assert placement(graph) == (1, 0)
        assert evals(graph, event(guids, source=source)) == 1
        assert evals(graph, event(guids)) == 0

    @pytest.mark.parametrize("unanalysable", [
        MatchAll(),
        NotFilter(TypeFilter("location")),
        OrFilter([TypeFilter("location"), TypeFilter("presence")]),
        AttributeFilter("value", ">", 2),
    ])
    def test_non_exact_shapes_yield_no_constraints(self, guids, unanalysable):
        graph, type_name = filed(unanalysable)
        assert type_name is None
        assert placement(graph) == (0, 1)
        assert evals(graph, event(guids, type_name="other",
                                  subject="nobody")) == 1

    def test_or_inside_and_does_not_leak_constraints(self, guids):
        graph, type_name = filed(
            AndFilter([OrFilter([TypeFilter("a"), TypeFilter("b")]),
                       SubjectFilter("bob")]))
        assert type_name is None
        assert placement(graph) == (1, 0)
        # filed under the subject alone: any type reaches it
        assert evals(graph, event(guids, type_name="c")) == 1
        assert evals(graph, event(guids, type_name="a", subject="john")) == 0

    def test_unhashable_subject_falls_to_residual(self, guids):
        graph, type_name = filed(SubjectFilter(["not", "hashable"]))
        assert type_name is None
        assert placement(graph) == (0, 1)
        assert evals(graph, event(guids)) == 1


def index_counts(graph):
    """``mediator.index.{hits,residual_scans}`` so far."""
    return (graph.registry.counter("mediator.index.hits").total(),
            graph.registry.counter("mediator.index.residual_scans").total())


class TestDispatchIndex:
    def test_non_matching_buckets_skipped(self, guids):
        graph = table()
        graph.attach(1, TypeFilter("presence"))
        graph.attach(2, SubjectFilter("john"))
        assert evals(graph, event(guids)) == 0
        assert index_counts(graph) == (0, 0)
        assert graph.log == []

    def test_remove_clears_empty_buckets(self, guids):
        graph = table()
        graph.attach(1, TypeFilter("location"))
        graph.attach(2, TypeFilter("location", "symbolic"))
        assert graph.detach(1)
        assert graph._buckets  # the type bucket still holds sub 2's node
        assert graph.detach(2)
        assert not graph.detach(2)
        assert graph.stats()["nodes"] == 0 and placement(graph) == (0, 0)
        assert graph._buckets == {}  # reclaimed with its last node
        assert evals(graph, event(guids)) == 0

    def test_source_bucket(self, guids):
        source = guids.mint()
        graph = table()
        graph.attach(1, SourceFilter(source.hex))
        graph.attach(2, SourceFilter(guids.mint().hex))
        assert evals(graph, event(guids, source=source)) == 1
        assert index_counts(graph) == (1, 0)
        assert graph.log == [1]

    def test_re_add_moves_entry(self, guids):
        graph = table()
        graph.attach(1, TypeFilter("location"))
        graph.attach(1, TypeFilter("presence"))
        assert graph.stats()["nodes"] == 1
        assert evals(graph, event(guids)) == 0
        assert evals(graph, event(guids, type_name="presence")) == 1
        assert graph.log == [1]


@pytest.fixture
def mediator(network, guids):
    return EventMediator(guids.mint(), "host-a", network, "test-range")


def sink(network, guids):
    return acking_sink(guids, network)


def publish(mediator, type_name="location", subject="bob", value=1):
    evt = ContextEvent(TypeSpec(type_name, "repr", subject), value,
                       mediator.guid, mediator.now)
    return mediator.publish(evt)


class TestMediatorIndexMaintenance:
    def test_indexed_and_naive_agree_on_mixed_filters(self, network, guids):
        specs = [TypeFilter("location"),
                 AndFilter([TypeFilter("location"), SubjectFilter("bob")]),
                 OrFilter([TypeFilter("presence"), SubjectFilter("bob")]),
                 MatchAll()]
        results = []
        for mediator_class in (EventMediator, ReferenceScanMediator):
            med = mediator_class(guids.mint(), "host-a", network,
                                 f"r-{mediator_class.__name__}")
            inboxes = []
            for spec in specs:
                process, inbox = sink(network, guids)
                inboxes.append(inbox)
                med.add_subscription(process.guid, spec)
            publish(med)
            publish(med, type_name="presence", subject="john")
            network.scheduler.run_until_idle()
            results.append([len(inbox) for inbox in inboxes])
        assert results[0] == results[1]

    def test_one_time_exhaustion_cleans_index(self, network, guids, mediator):
        process, inbox = sink(network, guids)
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  one_time=True)
        assert publish(mediator) == 1
        assert mediator.subscription_count == 0
        stats = mediator.opgraph_stats()
        assert (stats["nodes"], stats["indexed_nodes"]) == (0, 0)
        assert publish(mediator) == 0

    def test_remove_owner_uses_reverse_map(self, network, guids, mediator):
        process, _ = sink(network, guids)
        for _ in range(3):
            mediator.add_subscription(process.guid, TypeFilter("location"),
                                      owner="cfg-1")
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  owner="cfg-2")
        assert mediator.remove_subscriptions_of("cfg-1") == 3
        assert mediator.remove_subscriptions_of("cfg-1") == 0
        assert mediator.subscription_count == 1
        assert publish(mediator) == 1

    def test_remove_subscriber_uses_reverse_map(self, network, guids, mediator):
        leaving, _ = sink(network, guids)
        staying, _ = sink(network, guids)
        mediator.add_subscription(leaving.guid, TypeFilter("location"))
        mediator.add_subscription(leaving.guid, MatchAll())
        mediator.add_subscription(staying.guid, TypeFilter("location"))
        assert mediator.remove_subscriber(leaving.guid) == 2
        assert mediator.subscription_count == 1
        assert mediator.subscriptions_for(leaving.guid) == []
        assert len(mediator.subscriptions_for(staying.guid)) == 1

    def test_retained_cap_evicts_oldest_first(self, network, guids,
                                              monkeypatch):
        monkeypatch.setattr(mediator_module, "DEFAULT_RETAINED_CAP", 2)
        med = EventMediator(guids.mint(), "host-a", network, "capped")
        publish(med, subject="bob")
        publish(med, subject="john")
        publish(med, subject="ada")          # evicts bob's entry
        assert med.retained_count == 2
        assert med.retained_evictions == 1
        assert med.retained_event("location", "repr", "bob") is None
        assert med.retained_event("location", "repr", "ada") is not None
        # updating an existing key does not evict
        publish(med, subject="john", value=2)
        assert med.retained_evictions == 1

    def test_replay_uses_type_bucket(self, network, guids, mediator):
        publish(mediator, type_name="location", subject="bob")
        publish(mediator, type_name="presence", subject="door-1")
        process, inbox = sink(network, guids)
        mediator.add_subscription(process.guid, TypeFilter("location"))
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        hits = network.obs.metrics.counter(
            "mediator.index.hits").value(range="test-range")
        assert hits >= 1

    def test_index_counters_exported(self, network, guids, mediator):
        process, _ = sink(network, guids)
        mediator.add_subscription(process.guid, TypeFilter("location"))
        mediator.add_subscription(process.guid, MatchAll())
        publish(mediator)
        metrics = network.obs.metrics
        assert metrics.counter("mediator.index.hits").total() >= 1
        assert metrics.counter("mediator.index.residual_scans").total() >= 1
        stats = mediator.opgraph_stats()
        assert stats["indexed_nodes"] == 1
        assert stats["residual_nodes"] == 1
