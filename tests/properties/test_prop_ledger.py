"""The ledger determinism contract, fuzzed: projection == live, always.

Hypothesis draws arbitrary op traces — register / re-register / depart,
profile patch (aimed at whoever is registered at that point), subscribe
(any filter shape, one-time or not), unsubscribe, publish, resync — and runs
them against live components (Registrar, the ProfileManager over it, an
Event Mediator) wired to one ledger chain. After EVERY op the
projection of the entries appended so far must equal the live books
snapshot-for-snapshot. A tight retained cap keeps evictions in play,
one-time subscriptions exercise the unsubscribe-then-publish order the
mediator logs on its own, and a resync replays the retained store under a
single ``replay`` entry.

A second property interleaves appends with every seal point (``head``,
``entries()``, ``verify()``) on one bare chain: the chain never depends on
where the seals fall, and each ``verify()`` hashes each entry once.
"""

import itertools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import GUID, GuidFactory
from repro.core.types import TypeSpec
from repro.entities.profile import EntityClass, Profile
from repro.events import mediator as mediator_module
from repro.events.event import ContextEvent
from repro.events.filters import (AndFilter, MatchAll, SubjectFilter,
                                  TypeFilter)
from repro.events.mediator import EventMediator
from repro.ledger import ledger as ledger_module
from repro.ledger.ledger import ENTRY_KINDS, ContextLedger
from repro.ledger.replay import (ReplayProjector, projection_snapshot,
                                 snapshot_profiles, snapshot_registrar,
                                 snapshot_retained, snapshot_subscriptions)
from repro.net.transport import FixedLatency, FunctionProcess, Network
from repro.server.profile_manager import ProfileManager
from repro.server.registrar import Registrar, RegistrationRecord

TYPES = ["location", "temperature"]
SUBJECTS = ["bob", "ada"]
ENTITIES = 4


@st.composite
def operations(draw):
    op = draw(st.sampled_from(
        ["register", "depart", "profile-update", "subscribe", "unsubscribe",
         "publish", "resync"]))
    i = draw(st.integers(0, ENTITIES - 1))
    if op == "profile-update":
        return (op, i, draw(st.sampled_from(["room", "floor"])),
                draw(st.integers(0, 9)))
    if op == "subscribe":
        return (op, draw(st.sampled_from(["exact", "type", "subject",
                                          "all"])),
                draw(st.sampled_from(TYPES)),
                draw(st.sampled_from(SUBJECTS)),
                draw(st.booleans()))
    if op == "publish":
        return (op, draw(st.sampled_from(TYPES)),
                draw(st.sampled_from(SUBJECTS)), draw(st.integers(0, 99)))
    return (op, i)


def _build_filter(shape, type_name, subject):
    if shape == "exact":
        return AndFilter([TypeFilter(type_name), SubjectFilter(subject)])
    if shape == "type":
        return TypeFilter(type_name)
    if shape == "subject":
        return SubjectFilter(subject)
    return MatchAll()


def _live(registrar, profiles, mediator):
    return {
        "records": snapshot_registrar(registrar),
        "profiles": snapshot_profiles(profiles),
        "retained": snapshot_retained(mediator),
        "subscriptions": snapshot_subscriptions(mediator),
    }


def _projected(ledger):
    return projection_snapshot(
        ReplayProjector.from_entries(ledger.entries()).state)


class TestProjectionEqualsLive:
    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(operations(), min_size=1, max_size=25))
    @mock.patch.object(mediator_module, "DEFAULT_RETAINED_CAP", 2)
    def test_every_prefix_projects_to_the_live_books(self, ops):
        net = Network(latency_model=FixedLatency(1.0), seed=5)
        net.add_host("h")
        guids = GuidFactory(seed=6)
        ledger = ContextLedger("cs:prop")
        sink = FunctionProcess(guids.mint(), "h", net, lambda _m: None)
        mediator = EventMediator(guids.mint(), "h", net, "prop",
                                 ledger=ledger)
        registrar = Registrar(guids.mint(), "h", net, "prop",
                              context_server=sink.guid,
                              event_mediator=sink.guid,
                              lease_duration=1e6, ledger=ledger)
        profiles = ProfileManager(guids.mint(), "h", net, registrar, "prop",
                                  ledger=ledger)
        publisher = FunctionProcess(guids.mint(), "h", net, lambda _m: None)
        subscriber = FunctionProcess(guids.mint(), "h", net, lambda _m: None)
        entity_ids = [GUID((i + 1) << 64) for i in range(ENTITIES)]
        generations = itertools.count()
        sub_ids = []

        for op in ops:
            kind = op[0]
            if kind == "register":
                i = op[1]
                profile = Profile(entity_ids[i], f"e{i}", EntityClass.DEVICE,
                                  outputs=[TypeSpec.of("location",
                                                       "topological",
                                                       f"e{i}")],
                                  attributes={"gen": next(generations)})
                registrar.register_record(RegistrationRecord(
                    profile=profile, kind="ce", host_id="h",
                    registered_at=net.scheduler.now,
                    lease_expiry=0.0))  # leased; the Registrar stamps it
            elif kind == "depart":
                registrar.remove(entity_ids[op[1]].hex, "prop-op",
                                 notify_entity=False)
            elif kind == "profile-update":
                members = registrar.records()
                if members:
                    target = members[op[1] % len(members)].entity_hex
                    assert profiles.update_attributes(target, {op[2]: op[3]})
                else:
                    assert not profiles.update_attributes(
                        entity_ids[op[1]].hex, {op[2]: op[3]})
            elif kind == "subscribe":
                _, shape, type_name, subject, one_time = op
                subscription = mediator.add_subscription(
                    subscriber.guid, _build_filter(shape, type_name, subject),
                    one_time=one_time, owner="prop")
                sub_ids.append(subscription.sub_id)
            elif kind == "unsubscribe":
                if sub_ids:
                    mediator.remove_subscription(
                        sub_ids[op[1] % len(sub_ids)])
            elif kind == "resync":
                if sub_ids:  # may name a subscription already gone: refused
                    subscriber.send(mediator.guid, "resync",
                                    {"sub_id": sub_ids[op[1] % len(sub_ids)]})
            elif kind == "publish":
                _, type_name, subject, value = op
                wire = ContextEvent(
                    TypeSpec(type_name, "topological", subject), value,
                    publisher.guid, net.scheduler.now).to_wire()
                publisher.send(mediator.guid, "publish", {"event": wire})
            # a bounded drain window, not run_until_idle: the registrar's
            # lease timer waits out the 1e6 lease of whatever it holds.
            # publisher -> mediator -> subscriber is 2 hops at
            # FixedLatency(1.0), so 5 units flushes every in-flight message
            net.scheduler.run_for(5.0)
            live = _live(registrar, profiles, mediator)
            assert _projected(ledger) == live

        ledger.verify()


payloads = st.dictionaries(
    st.sampled_from(["entity", "room", "seq", "bound"]),
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
              st.text(max_size=3), st.lists(st.integers(0, 9), max_size=3)),
    max_size=3)

chain_ops = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(ENTRY_KINDS), payloads),
    st.tuples(st.sampled_from(["head", "entries", "verify"])))


class TestSealPoints:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(chain_ops, max_size=30))
    def test_seal_points_never_change_the_chain(self, ops):
        appended = [(float(i), op[1], op[2])
                    for i, op in enumerate(o for o in ops if o[0] == "append")]
        reference = ContextLedger("cs:prop")
        for body in appended:
            reference.append(*body)
        reference.head

        ledger = ContextLedger("cs:prop")
        bodies = iter(appended)
        sealed = expected_calls = 0
        with mock.patch.object(ledger_module, "entry_hash",
                               wraps=ledger_module.entry_hash) as hashed:
            for op in ops:
                if op[0] == "append":
                    ledger.append(*next(bodies))
                    continue
                if op[0] == "head":
                    ledger.head
                elif op[0] == "entries":
                    ledger.entries()
                else:
                    assert ledger.verify() == len(ledger)
                    expected_calls += sealed
                sealed = len(ledger)
            final = ledger.entries()
        assert final == reference.entries()
        assert hashed.call_count == len(appended) + expected_calls
