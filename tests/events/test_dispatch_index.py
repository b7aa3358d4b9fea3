"""Dispatch index: filter analysis, bucket maintenance, mediator wiring."""

import pytest

from repro.core.types import TypeSpec
from repro.events import mediator as mediator_module
from repro.events.dispatch_index import DispatchIndex, analyse_filter
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
from tests.events.reference_scan import ReferenceScanMediator
from tests.events.sinks import acking_sink


class TestFilterAnalysis:
    def test_type_filter_yields_type_constraint(self):
        constraints = analyse_filter(TypeFilter("location"))
        assert constraints.type_name == "location"
        assert not constraints.has_subject

    def test_representation_narrowing_still_indexes_by_type(self):
        constraints = analyse_filter(TypeFilter("location", "symbolic"))
        assert constraints.type_name == "location"

    def test_subject_filter_yields_subject_constraint(self):
        constraints = analyse_filter(SubjectFilter("bob"))
        assert constraints.has_subject and constraints.subject == "bob"

    def test_conjunction_unions_constraints(self):
        constraints = analyse_filter(
            AndFilter([TypeFilter("location"), SubjectFilter("bob"),
                       AttributeFilter("value", "==", 3)]))
        assert constraints.type_name == "location"
        assert constraints.subject == "bob"

    def test_source_filter_yields_source_constraint(self):
        constraints = analyse_filter(SourceFilter("ab" * 16))
        assert constraints.source_hex == "ab" * 16

    @pytest.mark.parametrize("unanalysable", [
        MatchAll(),
        NotFilter(TypeFilter("location")),
        OrFilter([TypeFilter("location"), TypeFilter("presence")]),
        AttributeFilter("value", ">", 2),
    ])
    def test_non_exact_shapes_yield_no_constraints(self, unanalysable):
        assert not analyse_filter(unanalysable).indexable

    def test_or_inside_and_does_not_leak_constraints(self):
        constraints = analyse_filter(
            AndFilter([OrFilter([TypeFilter("a"), TypeFilter("b")]),
                       SubjectFilter("bob")]))
        assert constraints.type_name is None
        assert constraints.subject == "bob"

    def test_unhashable_subject_falls_to_residual(self):
        constraints = analyse_filter(SubjectFilter(["not", "hashable"]))
        assert not constraints.has_subject


def event(guids, type_name="location", subject="bob", source=None):
    return ContextEvent(TypeSpec(type_name, "repr", subject), 1,
                        source or guids.mint(), 0.0)


class TestDispatchIndex:
    def test_candidates_sorted_and_bucketed(self, guids):
        index = DispatchIndex()
        index.add(3, TypeFilter("location"))
        index.add(1, AndFilter([TypeFilter("location"), SubjectFilter("bob")]))
        index.add(2, MatchAll())
        ids, hits, residual = index.candidates(event(guids))
        assert ids == [1, 2, 3]
        assert hits == 2 and residual == 1

    def test_non_matching_buckets_skipped(self, guids):
        index = DispatchIndex()
        index.add(1, TypeFilter("presence"))
        index.add(2, SubjectFilter("john"))
        ids, hits, residual = index.candidates(event(guids))
        assert ids == [] and hits == 0 and residual == 0

    def test_remove_clears_empty_buckets(self, guids):
        index = DispatchIndex()
        index.add(1, TypeFilter("location"))
        assert index.remove(1)
        assert not index.remove(1)
        assert len(index) == 0
        ids, _, _ = index.candidates(event(guids))
        assert ids == []

    def test_source_bucket(self, guids):
        source = guids.mint()
        index = DispatchIndex()
        index.add(1, SourceFilter(source.hex))
        index.add(2, SourceFilter(guids.mint().hex))
        ids, hits, _ = index.candidates(event(guids, source=source))
        assert ids == [1] and hits == 1

    def test_re_add_moves_entry(self, guids):
        index = DispatchIndex()
        index.add(1, TypeFilter("location"))
        index.add(1, TypeFilter("presence"))
        assert len(index) == 1
        ids, _, _ = index.candidates(event(guids, type_name="presence"))
        assert ids == [1]


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
        assert mediator.index_stats()["indexed_subscriptions"] == 0
        assert mediator.opgraph_stats()["nodes"] == 0
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
        stats = mediator.index_stats()
        assert stats["indexed_subscriptions"] == 1
        assert stats["residual_subscriptions"] == 1
