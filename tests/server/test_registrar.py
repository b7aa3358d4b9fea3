"""Registrar: registration protocol, leases, eviction, callbacks."""

import pytest

from repro.core.types import TypeSpec
from repro.entities.advertisement import Advertisement
from repro.entities.profile import EntityClass, Profile
from repro.net.transport import FunctionProcess
from repro.query.model import WhatClause
from repro.server.registrar import RegistrationRecord, Registrar
from tests.server.reference_scan import scan_matching

LEASE = 10.0
#: eviction comes one and a half renewal periods (lease / 3) after a
#: deadline, so three lost heartbeats in a row are survived
GRACE = LEASE / 2


@pytest.fixture
def registrar(network, guids):
    reg = Registrar(guids.mint(), "host-a", network, "test-range",
                    context_server=guids.mint(),
                    event_mediator=guids.mint(),
                    lease_duration=LEASE)
    return reg


def register(network, guids, registrar, name="ce-1", kind="ce"):
    profile = Profile(guids.mint(), name,
                      outputs=[TypeSpec("temperature", "celsius")])
    replies = []
    component = FunctionProcess(profile.entity_id, "host-b", network,
                                replies.append, name=name)
    component.send(registrar.guid, "register",
                   {"kind": kind, "profile": profile.to_wire(),
                    "advertisements": []})
    network.scheduler.run_for(5)
    return component, profile, replies


class TestRegistration:
    def test_ack_carries_range_addresses(self, network, guids, registrar):
        _, _, replies = register(network, guids, registrar)
        ack = replies[0].payload
        assert ack["ok"] is True
        assert ack["range"] == "test-range"
        assert ack["context_server"] == registrar.context_server.hex
        assert ack["event_mediator"] == registrar.event_mediator.hex
        assert ack["lease"] == 10.0

    def test_record_stored_with_host(self, network, guids, registrar):
        component, profile, _ = register(network, guids, registrar)
        record = registrar.record(profile.entity_id.hex)
        assert record.host_id == "host-b"
        assert record.kind == "ce"

    def test_arrival_callback_fires_once(self, network, guids, registrar):
        arrivals = []
        registrar.on_arrival = arrivals.append
        component, profile, _ = register(network, guids, registrar)
        # re-register (e.g. duplicate offer): no second arrival
        component.send(registrar.guid, "register",
                       {"kind": "ce", "profile": profile.to_wire()})
        network.scheduler.run_for(5)
        assert len(arrivals) == 1

    def test_malformed_profile_refused(self, network, guids, registrar):
        replies = []
        component = FunctionProcess(guids.mint(), "host-b", network,
                                    replies.append)
        component.send(registrar.guid, "register", {"profile": {"bad": 1}})
        network.scheduler.run_for(5)
        assert replies[0].payload["ok"] is False

    def test_profile_that_is_not_an_object_refused(self, network, guids,
                                                   registrar):
        # one bad message must not end the run for every host
        replies = []
        component = FunctionProcess(guids.mint(), "host-b", network,
                                    replies.append)
        component.send(registrar.guid, "register", {"profile": "P1"})
        component.send(registrar.guid, "register",
                       {"profile": Profile(guids.mint(), "x").to_wire(),
                        "advertisements": ["print-service"]})
        network.scheduler.run_for(5)
        assert [(m.kind, m.payload["ok"]) for m in replies] == \
            [("register-ack", False)] * 2
        assert all(m.payload["error"] for m in replies)
        assert registrar.population() == 0

    def test_deregister_removes_and_notifies_callback(self, network, guids,
                                                      registrar):
        departures = []
        registrar.on_departure = lambda record, reason: departures.append(reason)
        component, profile, _ = register(network, guids, registrar)
        component.send(registrar.guid, "deregister",
                       {"entity": profile.entity_id.hex})
        network.scheduler.run_for(5)
        assert not registrar.registered(profile.entity_id.hex)
        assert departures == ["deregistered"]


class TestLeases:
    def test_eviction_without_heartbeat(self, network, guids, registrar):
        _, profile, _ = register(network, guids, registrar)
        network.scheduler.run_for(20)  # lease 10 + lease/2
        assert not registrar.registered(profile.entity_id.hex)
        assert registrar.evictions == 1

    def test_heartbeats_renew(self, network, guids, registrar):
        component, profile, _ = register(network, guids, registrar)
        for _ in range(10):
            component.send(registrar.guid, "heartbeat",
                           {"entities": [profile.entity_id.hex]})
            network.scheduler.run_for(4)
        assert registrar.registered(profile.entity_id.hex)

    def test_evicted_entity_notified(self, network, guids, registrar):
        component, profile, replies = register(network, guids, registrar)
        network.scheduler.run_for(20)
        kinds = [m.kind for m in replies]
        assert "deregistered" in kinds

    def test_stale_heartbeat_gets_not_registered(self, network, guids, registrar):
        component, profile, replies = register(network, guids, registrar)
        network.scheduler.run_for(20)  # evicted
        component.send(registrar.guid, "heartbeat",
                       {"entities": [profile.entity_id.hex]})
        network.scheduler.run_for(5)
        notices = [m for m in replies if m.kind == "deregistered"]
        assert any(m.payload["reason"] == "not-registered" for m in notices)

    def test_one_heartbeat_renews_a_machine_and_names_the_unknown(
            self, network, guids, registrar):
        # the Range Service's list form: one expiry for the batch, nothing
        # back to the sender, and a listed entity the Registrar does not
        # hold is told so itself
        _, held, _ = register(network, guids, registrar, name="held")
        _, other, _ = register(network, guids, registrar, name="other")
        evicted_inbox = []
        evicted = FunctionProcess(guids.mint(), "host-b", network,
                                  evicted_inbox.append)
        inbox = []
        daemon = FunctionProcess(guids.mint(), "host-b", network, inbox.append)
        daemon.send(registrar.guid, "heartbeat", {"entities": [
            held.entity_id.hex, evicted.guid.hex, other.entity_id.hex]})
        network.scheduler.run_for(3)
        assert inbox == []
        assert [(m.kind, m.payload) for m in evicted_inbox] == \
            [("deregistered", {"reason": "not-registered"})]
        expiries = {registrar.record(p.entity_id.hex).lease_expiry
                    for p in (held, other)}
        assert len(expiries) == 1 and expiries.pop() > 15.0
        metrics = network.obs.metrics
        assert metrics.counter(
            "registrar.lease.renewals").value(range="test-range") == 2
        assert metrics.counter(
            "registrar.lease.unknown").value(range="test-range") == 1

    def test_unparseable_id_in_a_heartbeat_is_counted_not_raised(
            self, network, guids, registrar):
        # it cannot be told ``deregistered`` (it has no address), but it is
        # unknown like any other, and the ids around it are still renewed
        _, held, _ = register(network, guids, registrar, name="held")
        before = registrar.record(held.entity_id.hex).lease_expiry
        inbox = []
        daemon = FunctionProcess(guids.mint(), "host-b", network, inbox.append)
        daemon.send(registrar.guid, "heartbeat",
                    {"entities": ["not-hex", held.entity_id.hex]})
        network.scheduler.run_for(3)
        assert inbox == []
        assert registrar.record(held.entity_id.hex).lease_expiry > before
        assert network.obs.metrics.counter(
            "registrar.lease.unknown").value(range="test-range") == 1

    def test_a_heartbeat_listing_a_non_string_id_is_refused_whole(
            self, network, guids, registrar):
        _, held, _ = register(network, guids, registrar, name="held")
        before = registrar.record(held.entity_id.hex).lease_expiry
        daemon = FunctionProcess(guids.mint(), "host-b", network,
                                 lambda message: None)
        daemon.send(registrar.guid, "heartbeat",
                    {"entities": [7, held.entity_id.hex]})
        network.scheduler.run_for(3)
        assert registrar.record(held.entity_id.hex).lease_expiry == before
        metrics = network.obs.metrics
        assert metrics.get("net.messages.malformed").value(
            kind="heartbeat") == 1
        assert metrics.counter(
            "registrar.lease.unknown").value(range="test-range") == 0

    def test_infrastructure_records_have_no_lease(self, network, guids, registrar):
        profile = Profile(guids.mint(), "infra-ce")
        registrar.register_record(RegistrationRecord(
            profile=profile, kind="infrastructure", lease_expiry=None))
        network.scheduler.run_for(50)
        assert registrar.registered(profile.entity_id.hex)

    def test_invalid_intervals_rejected(self, network, guids):
        with pytest.raises(ValueError):
            Registrar(guids.mint(), "host-a", network, "r",
                      guids.mint(), guids.mint(), lease_duration=0)

    def test_a_small_positive_lease_is_accepted(self, network, guids):
        registrar = Registrar(guids.mint(), "host-a", network, "r",
                              guids.mint(), guids.mint(),
                              lease_duration=0.001)
        record = registrar.register_record(RegistrationRecord(
            profile=Profile(guids.mint(), "brief"), kind="ce",
            lease_expiry=0.0))
        assert record.lease_expiry == 0.001
        network.scheduler.run_for(1)
        assert registrar.evictions == 1


class TestLeaseBook:
    """One book of deadlines in renewal order, one timer at its head."""

    def test_renewal_moves_an_entry_to_the_end(self, network, guids,
                                               registrar):
        _, first, _ = register(network, guids, registrar, name="first")
        _, second, _ = register(network, guids, registrar, name="second")
        hexes = [first.entity_id.hex, second.entity_id.hex]
        assert list(registrar._leases) == hexes
        daemon = FunctionProcess(guids.mint(), "host-b", network,
                                 lambda message: None)
        daemon.send(registrar.guid, "heartbeat", {"entities": hexes[:1]})
        network.scheduler.run_for(1)
        assert list(registrar._leases) == hexes[::-1]
        deadlines = [record.lease_expiry
                     for record in registrar._leases.values()]
        assert deadlines == sorted(deadlines)
        assert all(registrar._leases[entity_hex] is registrar.record(entity_hex)
                   for entity_hex in hexes)

    def test_the_registrar_stamps_every_deadline(self, network, guids,
                                                 registrar):
        network.scheduler.run_for(3)
        record = registrar.register_record(RegistrationRecord(
            profile=Profile(guids.mint(), "filed"), kind="ce",
            lease_expiry=1e6))
        assert record.lease_expiry == 3 + LEASE
        assert registrar._leases == {record.entity_hex: record}

    def test_eviction_is_half_a_lease_past_the_deadline(
            self, network, guids, registrar):
        departures = []
        registrar.on_departure = lambda record, reason: departures.append(
            (network.scheduler.now, reason))
        registrar.register_record(RegistrationRecord(
            profile=Profile(guids.mint(), "silent"), kind="ce",
            lease_expiry=0.0))
        network.scheduler.run_until(LEASE + GRACE - 0.01)
        assert departures == []
        network.scheduler.run_for(1)
        assert departures == [(LEASE + GRACE, "lease-expired")]

    @pytest.mark.parametrize("lost, evicted", [(3, False), (4, True)])
    def test_three_lost_heartbeats_are_survived_and_four_are_not(
            self, network, guids, registrar, lost, evicted):
        component, profile, _ = register(network, guids, registrar)
        for tick in range(7):  # one heartbeat per renewal period
            if not 1 <= tick <= lost:  # ticks 1..lost are lost
                component.send(registrar.guid, "heartbeat",
                               {"entities": [profile.entity_id.hex]})
            network.scheduler.run_for(LEASE / 3)
        assert registrar.registered(profile.entity_id.hex) is not evicted
        assert registrar.evictions == int(evicted)

    def test_book_never_outgrows_the_leased_records(self, network, guids,
                                                    registrar):
        component, profile, _ = register(network, guids, registrar)
        registrar.register_record(RegistrationRecord(
            profile=Profile(guids.mint(), "spawned"), kind="infrastructure"))
        for _ in range(30):
            component.send(registrar.guid, "heartbeat",
                           {"entities": [profile.entity_id.hex]})
            network.scheduler.run_for(4)
            leased = [record.entity_hex for record in registrar.records()
                      if record.lease_expiry is not None]
            assert list(registrar._leases) == leased
        assert registrar.evictions == 0

    def test_one_timer_for_the_book_and_none_once_it_empties(
            self, network, guids, registrar):
        idle = network.scheduler.pending
        for index in range(5):
            registrar.register_record(RegistrationRecord(
                profile=Profile(guids.mint(), f"ce-{index}"), kind="ce",
                lease_expiry=0.0))
        assert network.scheduler.pending == idle + 1
        network.scheduler.run_for(LEASE + GRACE)
        assert registrar.evictions == 5
        assert registrar._leases == {}
        # the deregistered notices are in flight; then nothing is left
        network.scheduler.run_for(LEASE)
        assert network.scheduler.pending == idle

    def test_departed_record_leaves_the_book(self, network, guids, registrar):
        component, profile, _ = register(network, guids, registrar)
        component.send(registrar.guid, "deregister",
                       {"entity": profile.entity_id.hex})
        network.scheduler.run_for(1)
        assert registrar._leases == {}
        network.scheduler.run_for(30)  # the timer fires on an empty book
        assert registrar.evictions == 0
        assert registrar._lease_timer is None

    def test_shutdown_cancels_the_timer(self, network, guids, registrar):
        idle = network.scheduler.pending
        registrar.register_record(RegistrationRecord(
            profile=Profile(guids.mint(), "held"), kind="ce",
            lease_expiry=0.0))
        registrar.shutdown()
        assert network.scheduler.pending == idle

    def test_every_membership_change_fires_one_hook(self, network, guids,
                                                    registrar):
        """Registration, a direct insert, re-registration, deregistration
        and eviction each fire exactly one hook: the provider index's only
        write path."""
        fired = []
        registrar.on_arrival = lambda record: fired.append(
            ("arrival", record.profile.name))
        registrar.on_replacement = lambda previous, record: fired.append(
            ("replacement", record.profile.name))
        registrar.on_departure = lambda record, reason: fired.append(
            ("departure", record.profile.name, reason))
        component, profile, _ = register(network, guids, registrar)
        registrar.register_record(RegistrationRecord(
            profile=Profile(guids.mint(), "spawned"), kind="infrastructure"))
        component.send(registrar.guid, "register",
                       {"kind": "ce", "profile": profile.to_wire()})
        network.scheduler.run_for(5)
        _, leased, _ = register(network, guids, registrar, name="ce-2")
        component.send(registrar.guid, "deregister",
                       {"entity": profile.entity_id.hex})
        network.scheduler.run_for(40)  # ce-2 is never renewed
        assert fired == [("arrival", "ce-1"), ("arrival", "spawned"),
                         ("replacement", "ce-1"), ("arrival", "ce-2"),
                         ("departure", "ce-1", "deregistered"),
                         ("departure", "ce-2", "lease-expired")]


def _record(guids, name, outputs=(), entity_class=EntityClass.DEVICE,
            services=(), **attributes):
    profile = Profile(guids.mint(), name, entity_class,
                      outputs=[TypeSpec(type_name, "raw")
                               for type_name in outputs],
                      attributes=attributes)
    return RegistrationRecord(
        profile=profile, kind="ce",
        advertisements=[Advertisement(service) for service in services])


WHATS = ([WhatClause.entity_type(tag) for tag in
          ("device", "software", "printer", "print", "print-service",
           "scanner", "nothing")]
         + [WhatClause.for_pattern(type_name) for type_name in
            ("temperature", "presence", "location")]
         + [WhatClause.named(name) for name in ("p", "q", "thermo", "ghost")])


def assert_index_equals_scan(registrar, extra=()):
    for what in list(WHATS) + list(extra):
        indexed = [record.entity_hex for record in registrar.matching(what)]
        scanned = [record.entity_hex
                   for record in scan_matching(registrar, what)]
        assert indexed == scanned, str(what)


class TestWhatIndex:
    """``matching`` selects what the reference scan selects, in its order."""

    @pytest.fixture
    def population(self, guids, registrar):
        records = [
            _record(guids, "p", ["presence"], services=["print-service"],
                    device="printer"),
            _record(guids, "thermo", ["temperature", "presence"]),
            _record(guids, "p", services=["print"], device="scanner"),
            _record(guids, "q", ["location"], EntityClass.SOFTWARE),
            _record(guids, "p", ["temperature"], device="printer"),
        ]
        for record in records:
            registrar.register_record(record)
        return records

    def test_three_kinds_match_the_scan(self, registrar, population):
        assert_index_equals_scan(registrar, [
            WhatClause.named(record.entity_hex) for record in population])
        printers = registrar.matching(WhatClause.entity_type("printer"))
        assert printers == [population[0], population[4]]
        # a "-service" advertisement answers to its bare name too
        assert registrar.matching(WhatClause.entity_type("print")) == [
            population[0], population[2]]

    def test_reregistered_keeps_place_returned_goes_last(self, guids,
                                                         registrar,
                                                         population):
        first, _, second, _, third = population
        named_p = WhatClause.named("p")
        assert registrar.matching(named_p) == [first, second, third]
        # same hex again: replaced in place among its namesakes
        again = RegistrationRecord(profile=Profile(
            first.profile.entity_id, "p", EntityClass.DEVICE,
            outputs=[TypeSpec("location", "raw")]), kind="ce")
        registrar.register_record(again)
        assert registrar.matching(named_p) == [again, second, third]
        assert_index_equals_scan(registrar)
        # left and came back: last among its namesakes
        registrar.remove(second.entity_hex, "test", notify_entity=False)
        registrar.register_record(second)
        assert registrar.matching(named_p) == [again, third, second]
        assert_index_equals_scan(registrar)

    def test_replacement_refiles_every_bucket(self, registrar, population):
        first = population[0]
        again = RegistrationRecord(profile=Profile(
            first.profile.entity_id, "renamed", EntityClass.SOFTWARE,
            outputs=[TypeSpec("location", "raw")]), kind="ce")
        registrar.register_record(again)
        assert first not in registrar.matching(WhatClause.named("p"))
        assert first not in registrar.matching(
            WhatClause.for_pattern("presence"))
        assert registrar.matching(WhatClause.named("renamed")) == [again]
        assert again in registrar.matching(WhatClause.for_pattern("location"))
        assert_index_equals_scan(registrar, [WhatClause.named("renamed")])

    def test_retag_follows_the_device_attribute(self, registrar, population):
        scanner = population[2]
        scanner.profile.attributes["device"] = "printer"
        registrar.retag(scanner.entity_hex)
        assert scanner in registrar.matching(WhatClause.entity_type("printer"))
        assert registrar.matching(WhatClause.entity_type("scanner")) == []
        assert_index_equals_scan(registrar)

    def test_removal_unfiles_and_drops_empty_buckets(self, registrar,
                                                     population):
        for record in population:
            registrar.remove(record.entity_hex, "test", notify_entity=False)
            assert_index_equals_scan(registrar)
        assert registrar._by_name == {}
        assert registrar._by_tag == {}
        assert registrar._by_offered_type == {}

    def test_replacement_notifies_its_own_hook(self, network, guids,
                                               registrar):
        arrivals, replacements = [], []
        registrar.on_arrival = arrivals.append
        registrar.on_replacement = (
            lambda previous, record: replacements.append((previous, record)))
        component, profile, _ = register(network, guids, registrar)
        component.send(registrar.guid, "register",
                       {"kind": "ce", "profile": profile.to_wire()})
        network.scheduler.run_for(5)
        assert len(arrivals) == 1
        [(previous, record)] = replacements
        assert previous is arrivals[0]
        assert record is registrar.record(profile.entity_id.hex)
