"""The ledger records the publish, not each recipient.

One fan-out is one ``publish`` entry — what it retained and the
``[sub_id, seq]`` pair of everybody it served (the seq that subscription's
delivery got), appended when the
fan-out completes; deliveries made outside a publish (retained replay to
a fresh subscription, a served ``resync``) are one ``replay`` entry per
replay. A change that silently goes back to an entry per recipient, or
that appends the entry before the fan-out is over, fails here.
"""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events import mediator as mediator_module
from repro.events.event import ContextEvent
from repro.events.filters import AndFilter, SubjectFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.ledger.ledger import ContextLedger
from repro.ledger.replay import (ReplayProjector, projection_snapshot,
                                 snapshot_retained, snapshot_subscriptions)
from repro.net.transport import FixedLatency, FunctionProcess, Network


@pytest.fixture
def rig(monkeypatch):
    monkeypatch.setattr(mediator_module, "DEFAULT_RETAINED_CAP", 8)
    net = Network(latency_model=FixedLatency(1.0), seed=3)
    net.add_host("h")
    guids = GuidFactory(seed=4)
    sink = FunctionProcess(guids.mint(), "h", net, lambda _m: None)
    return net, guids, sink


def plain(rig):
    net, guids, _ = rig
    return EventMediator(guids.mint(), "h", net, "r",
                         ledger=ContextLedger("cs:fold"))


def event(mediator, n, subject="bob", type_name="location"):
    return ContextEvent(TypeSpec(type_name, "topological", subject),
                        f"room-{n}", mediator.guid, 0.0)


def kinds(chain, since=0):
    return [entry.kind for entry in chain.entries()[since:]]


def assert_projects_to_live(mediator):
    projected = projection_snapshot(ReplayProjector.from_entries(
        mediator.ledger.entries()).state)
    assert projected["subscriptions"] == snapshot_subscriptions(mediator)
    assert projected["retained"] == snapshot_retained(mediator)


def test_k_matches_are_one_entry_with_k_pairs_in_delivery_order(rig):
    _, _, sink = rig
    mediator = plain(rig)
    chain = mediator.ledger
    subs = [mediator.add_subscription(sink.guid, TypeFilter("location"))
            for _ in range(3)]
    mediator.add_subscription(sink.guid, TypeFilter("temperature"))
    mark = len(chain)
    assert mediator.publish(event(mediator, 41)) == 3
    assert mediator.publish(event(mediator, 42)) == 3
    first, second = chain.entries()[mark:]
    assert first.kind == second.kind == "publish"
    assert first.payload == {
        "key": ["location", "topological", "bob"],
        "event": event(mediator, 41).to_wire(),
        "deliveries": [[sub.sub_id, 1] for sub in subs]}
    assert "seq" not in second.payload["event"]
    assert second.payload["deliveries"] == [[sub.sub_id, 2] for sub in subs]
    assert_projects_to_live(mediator)


def test_publish_at_the_cap_is_evict_then_publish(rig, monkeypatch):
    monkeypatch.setattr(mediator_module, "DEFAULT_RETAINED_CAP", 2)
    mediator = plain(rig)
    chain = mediator.ledger
    for n, subject in enumerate(("bob", "ada"), start=1):
        mediator.publish(event(mediator, n, subject))
    mark = len(chain)
    mediator.publish(event(mediator, 3, "eve"))
    evict, publish = chain.entries()[mark:]
    assert (evict.kind, evict.payload) == \
        ("retain-evict", {"key": ["location", "topological", "bob"]})
    assert publish.kind == "publish"
    assert [key[2] for key, _ in mediator.all_retained_entries()] == \
        ["ada", "eve"]
    assert_projects_to_live(mediator)
    # bob comes back at the end, after the key it pushed out
    mark = len(chain)
    mediator.publish(event(mediator, 4, "bob"))
    assert kinds(chain, mark) == ["retain-evict", "publish"]
    assert [key[2] for key, _ in mediator.all_retained_entries()] == \
        ["eve", "bob"]
    assert_projects_to_live(mediator)


def test_consumed_one_time_subscription_projects_at_that_instant(rig):
    # the publish entry is appended when the fan-out completes, so the
    # unsubscribe of a one-time subscription it consumed comes first, at
    # the same sim-time; as_of(T) cannot separate entries of one instant,
    # and with all of them applied the projection is the live books
    _, _, sink = rig
    mediator = plain(rig)
    chain = mediator.ledger
    once = mediator.add_subscription(sink.guid, TypeFilter("location"),
                                     one_time=True)
    kept = mediator.add_subscription(sink.guid, TypeFilter("location"))
    mark = len(chain)
    assert mediator.publish(event(mediator, 7)) == 2
    instant = chain.entries()[mark:]
    assert [entry.kind for entry in instant] == ["unsubscribe", "publish"]
    assert len({entry.sim_time for entry in instant}) == 1
    assert instant[0].payload == {"sub_id": once.sub_id}
    assert instant[1].payload["deliveries"] == \
        [[once.sub_id, 1], [kept.sub_id, 1]]
    assert not mediator.has_subscription(once.sub_id)
    assert_projects_to_live(mediator)
    assert projection_snapshot(ReplayProjector.from_entries(
        chain.entries(upto=instant[0].sim_time)).state)["subscriptions"] == \
        snapshot_subscriptions(mediator)


def test_retained_replay_to_a_fresh_subscription_is_one_entry(rig):
    _, _, sink = rig
    mediator = plain(rig)
    chain = mediator.ledger
    for n, subject in enumerate(("bob", "ada", "eve"), start=1):
        mediator.publish(event(mediator, n, subject))
    mediator.publish(event(mediator, 4, "bob", type_name="temperature"))
    mark = len(chain)
    late = mediator.add_subscription(sink.guid, TypeFilter("location"))
    assert late.delivered == 3
    assert kinds(chain, mark) == ["subscribe", "replay"]
    assert chain.entries()[-1].payload == \
        {"deliveries": [[late.sub_id, seq] for seq in (1, 2, 3)]}
    # nothing retained matches: no replay, no entry
    mark = len(chain)
    mediator.add_subscription(sink.guid, TypeFilter("humidity"))
    assert kinds(chain, mark) == ["subscribe"]
    # a one-time late joiner is consumed by the first replayed event
    mark = len(chain)
    once = mediator.add_subscription(sink.guid, TypeFilter("location"),
                                     one_time=True)
    assert kinds(chain, mark) == ["subscribe", "replay", "unsubscribe"]
    assert chain.entries()[-2].payload == {"deliveries": [[once.sub_id, 1]]}
    assert_projects_to_live(mediator)


def test_a_served_resync_is_one_replay_entry(rig):
    net, _, sink = rig
    mediator = plain(rig)
    chain = mediator.ledger
    sub = mediator.add_subscription(sink.guid, SubjectFilter("bob"))
    exact = mediator.add_subscription(
        sink.guid, AndFilter([TypeFilter("location"), SubjectFilter("bob")]))
    for n, type_name in enumerate(("location", "temperature"), start=1):
        sink.send(mediator.guid, "publish",
                  {"event": event(mediator, n, "bob", type_name).to_wire()})
    net.scheduler.run_for(5.0)
    assert (sub.delivered, exact.delivered) == (2, 1)
    before = len(chain)
    for sub_id in (sub.sub_id, exact.sub_id, 999):  # the last: refused
        sink.send(mediator.guid, "resync", {"sub_id": sub_id})
    net.scheduler.run_for(5.0)
    assert (sub.delivered, exact.delivered) == (4, 2)
    assert [(entry.kind, entry.payload["deliveries"])
            for entry in chain.entries()[before:]] == [
        ("replay", [[sub.sub_id, 3], [sub.sub_id, 4]]),
        ("replay", [[exact.sub_id, 2]])]
    assert_projects_to_live(mediator)
