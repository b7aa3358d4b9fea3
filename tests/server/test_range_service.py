"""Range Service: the per-machine discovery daemon of Figure 5."""

import pytest

from repro.entities.entity import ContextAwareApplication, ContextEntity
from repro.entities.profile import Profile
from repro.net.message import BROADCAST
from repro.net.transport import FunctionProcess
from repro.server.range_service import RangeService
from repro.server.registrar import Registrar


@pytest.fixture
def service(network, guids):
    registrar_guid = guids.mint()
    service = RangeService(guids.mint(), "host-a", network,
                           "test-range", registrar_guid)
    return service, registrar_guid


class TestOffers:
    def test_component_up_gets_offer(self, network, guids, service):
        rs, registrar_guid = service
        inbox = []
        component = FunctionProcess(guids.mint(), "host-a", network,
                                    inbox.append)
        component.send(BROADCAST, "component-up", {"kind": "ce"})
        network.scheduler.run_for(5)
        offers = [m for m in inbox if m.kind == "range-offer"]
        assert len(offers) == 1
        assert offers[0].payload["registrar"] == registrar_guid.hex
        assert offers[0].payload["range"] == "test-range"

    def test_other_machine_not_offered(self, network, guids, service):
        rs, _ = service
        inbox = []
        component = FunctionProcess(guids.mint(), "host-b", network,
                                    inbox.append)
        component.send(BROADCAST, "component-up", {"kind": "ce"})
        network.scheduler.run_for(5)
        assert inbox == []  # broadcast is machine-local; no RS on host-b

    def test_disabled_service_silent(self, network, guids, service):
        rs, _ = service
        rs.enabled = False
        inbox = []
        component = FunctionProcess(guids.mint(), "host-a", network,
                                    inbox.append)
        component.send(BROADCAST, "component-up", {"kind": "ce"})
        network.scheduler.run_for(5)
        assert inbox == []

    def test_offer_to_host_targets_components_only(self, network, guids, service):
        rs, _ = service
        app = ContextAwareApplication(Profile(guids.mint(), "app"),
                                      "host-a", network)
        FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        offered = rs.offer_to_host()
        assert offered == 1  # the CAA, not the anonymous process
        assert rs.offers_made == 1


# -- the lease group: one heartbeat per machine --------------------------------

LEASE = 12.0
#: the Registrar evicts one and a half renewal periods (lease / 3) after a
#: deadline
GRACE = LEASE / 2


@pytest.fixture
def machine(network, guids):
    """A Registrar on host-a and the Range Service of host-b, with spies on
    what the Registrar is sent and whom it lets go."""
    registrar = Registrar(guids.mint(), "host-a", network, "test-range",
                          context_server=guids.mint(),
                          event_mediator=guids.mint(),
                          lease_duration=LEASE)
    rs = RangeService(guids.mint(), "host-b", network, "test-range",
                      registrar.guid)
    heartbeats, departures = [], []
    handle = registrar._handle_heartbeat

    def spy(message):
        heartbeats.append((registrar.now, message.sender,
                           set(message.payload["entities"])))
        handle(message)

    registrar._handle_heartbeat = spy
    registrar.on_departure = lambda record, reason: departures.append(
        (registrar.now, record.entity_hex, reason))
    return registrar, rs, heartbeats, departures


def start_ce(network, guids, name, host="host-b"):
    ce = ContextEntity(Profile(guids.mint(), name), host, network)
    ce.start()
    return ce


class TestLeaseGroup:
    def test_one_heartbeat_lists_the_whole_machine(self, network, guids,
                                                   machine):
        registrar, rs, heartbeats, departures = machine
        ces = [start_ce(network, guids, f"ce-{i}") for i in range(3)]
        network.scheduler.run_for(10 * LEASE)
        assert all(ce.registered for ce in ces) and not departures
        # one renewal per interval for the machine, not one per component
        assert 28 <= len(heartbeats) <= 30
        assert all(sender == rs.guid and listed == {ce.guid.hex for ce in ces}
                   for _, sender, listed in heartbeats)

    def test_renewal_is_one_heartbeat_per_interval_and_nothing_back(
            self, network, guids, machine):
        registrar, rs, heartbeats, departures = machine
        inbox, sent = [], []
        on_message, send = rs.on_message, rs.send

        def spy_on_message(message):
            inbox.append(message)
            on_message(message)

        def spy_send(recipient, kind, payload=None, **kwargs):
            sent.append((rs.now, kind))
            return send(recipient, kind, payload, **kwargs)

        rs.on_message, rs.send = spy_on_message, spy_send
        ce = start_ce(network, guids, "only")
        network.scheduler.run_for(10 * LEASE)
        ticks = [at for at, kind in sent if kind == "heartbeat"]
        assert [kind for _, kind in sent] == \
            ["range-offer"] + ["heartbeat"] * len(ticks)
        assert all(later - earlier == LEASE / 3
                   for earlier, later in zip(ticks, ticks[1:]))
        assert len(ticks) == \
            (network.scheduler.now - ticks[0]) // (LEASE / 3) + 1
        assert [m.kind for m in inbox] == ["component-up"]  # nothing back
        assert network.stats.by_kind["heartbeat-ack"] == 0
        assert ce.registered and not departures

    def test_one_lost_heartbeat_evicts_nobody(self, network, guids, machine):
        registrar, rs, heartbeats, departures = machine
        ce = start_ce(network, guids, "only")
        network.scheduler.run_for(LEASE)
        # cut the machine off around the third renewal's send only: the
        # network drops that one heartbeat and nothing else
        lost_send = heartbeats[0][0] - 1.0 + 2 * LEASE / 3
        network.scheduler.schedule_at(
            lost_send - 0.5, network.set_partitions, [["host-b"]])
        network.scheduler.schedule_at(lost_send + 0.5,
                                      network.heal_partitions)
        network.scheduler.run_for(3 * LEASE)
        arrivals = [at for at, _, _ in heartbeats]
        assert network.stats.dropped == 1
        assert lost_send + 1.0 not in arrivals
        assert max(later - earlier for earlier, later
                   in zip(arrivals, arrivals[1:])) == 2 * LEASE / 3
        assert ce.registered and registrar.registered(ce.guid.hex)
        assert not departures and registrar.evictions == 0

    def test_crashed_member_alone_expires_within_a_lease(self, network, guids,
                                                         machine):
        registrar, rs, heartbeats, departures = machine
        victim, *others = [start_ce(network, guids, f"ce-{i}")
                           for i in range(3)]
        network.scheduler.run_for(2 * LEASE)
        victim.crash()
        network.scheduler.run_for(10 * LEASE)
        last_listed = max(at for at, _, listed in heartbeats
                          if victim.guid.hex in listed)
        assert [(hex_, reason) for _, hex_, reason in departures] == \
            [(victim.guid.hex, "lease-expired")]
        assert departures[0][0] <= last_listed + LEASE + GRACE
        survivors = {ce.guid.hex for ce in others}
        assert all(listed == survivors for at, _, listed in heartbeats
                   if at > last_listed)
        assert all(registrar.registered(hex_) for hex_ in survivors)

    def test_empty_group_stops_the_timer_and_a_join_restarts_it(
            self, network, guids, machine):
        registrar, rs, heartbeats, _ = machine
        ce = start_ce(network, guids, "only")
        network.scheduler.run_for(LEASE)
        assert rs._renewal is not None and heartbeats
        ce.stop()
        network.scheduler.run_for(LEASE / 3)  # the next tick finds nobody
        assert rs._renewal is None
        quiet = len(heartbeats)
        network.scheduler.run_for(3 * LEASE)
        assert len(heartbeats) == quiet
        newcomer = start_ce(network, guids, "newcomer")
        network.scheduler.run_for(LEASE)
        assert rs._renewal is not None
        assert heartbeats[-1][2] == {newcomer.guid.hex}

    def test_crashed_last_member_also_stops_the_timer(self, network, guids,
                                                      machine):
        _, rs, heartbeats, _ = machine
        ce = start_ce(network, guids, "only")
        network.scheduler.run_for(LEASE)
        ce.crash()  # says nothing: the daemon finds it gone at its next tick
        network.scheduler.run_for(LEASE)
        assert rs._renewal is None
        assert all(listed for _, _, listed in heartbeats)  # never an empty list

    def test_handed_off_member_is_never_listed_in_the_old_range_again(
            self, network, guids, machine):
        registrar, rs, heartbeats, departures = machine
        mover = start_ce(network, guids, "mover")
        stayer = start_ce(network, guids, "stayer")
        network.scheduler.run_for(LEASE)
        # another range admits the machine: its own daemon offers, the
        # component takes the offer and leaves the old range (Section 3.4)
        other = Registrar(guids.mint(), "host-a", network, "other-range",
                          context_server=guids.mint(),
                          event_mediator=guids.mint(),
                          lease_duration=LEASE)
        other_rs = RangeService(guids.mint(), "host-b", network,
                                "other-range", other.guid)
        other_rs.offer_to(mover.guid)
        network.scheduler.run_for(1)  # the offer lands; the old range is left
        assert set(rs._members) == {stayer.guid.hex}
        in_flight_until = network.scheduler.now + 1
        network.scheduler.run_for(10 * LEASE)
        assert mover.range_name == "other-range"
        assert mover.registrar == other.guid and other.registered(mover.guid.hex)
        assert all(mover.guid.hex not in listed for at, _, listed in heartbeats
                   if at > in_flight_until)
        assert heartbeats[-1][2] == {stayer.guid.hex}
        assert [(hex_, reason) for _, hex_, reason in departures] == \
            [(mover.guid.hex, "deregistered")]
        assert other.evictions == 0 and registrar.evictions == 0
