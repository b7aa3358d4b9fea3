"""Link-local announcements reach listeners — and nothing else changes.

The transport delivers a ``BROADCAST`` to the processes on the sender's
machine that declared the kind (``Process.listens_for``; the Range Service
declares ``component-up``), found in a ``(host, kind) -> listeners`` table.
The flood it replaced is ``tests/net/reference_flood.py``. The differential
below runs one seeded deployment on both transports and requires everything
observable to be equal once the reference's dead letters are set aside; the
unit tests pin the table itself.
"""

import random

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec, standard_registry
from repro.entities.entity import ContextAwareApplication, ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.events.filters import TypeFilter
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.net.message import BROADCAST
from repro.net.transport import CampusLatency, FunctionProcess, Network
from repro.server.context_server import ContextServer
from repro.server.range import RangeDefinition
from tests.net.eventlog import attach
from tests.net.reference_flood import FloodNetwork
from tests.recording import RecordingApp

MACHINES = ("m0", "m1", "m2")
PER_MACHINE = 8
TEMPERATURE = TypeSpec("temperature", "celsius")


class Listener(FunctionProcess):
    listens_for = ("announce",)


def unheard(network):
    return {kind: int(count) for kind, count in
            network.obs.metrics.get("net.messages.unheard").by_label().items()}


# -- the differential ---------------------------------------------------------
#
# Range "a" covers m0 and m1, range "b" covers m1 — so m1 carries two
# ranges' daemons and every component there takes two offers — and m2 has no
# daemon at all: its components announce to nobody (production) or to each
# other (reference). Eight CEs and one CAA per machine start at seeded
# times; one CE stops, one crashes, and a@m0 is switched off while a late CE
# announces, then on again before it retries.


def run_deployment(network_class, seed=5):
    net = network_class(latency_model=CampusLatency(), seed=seed)
    log = net.event_log if network_class is FloodNetwork else attach(net)
    guids = GuidFactory(seed=seed)
    building = livingstone_tower()
    registry = register_location_converters(standard_registry(), building)
    for host in ("cs-a", "cs-b") + MACHINES:
        net.add_host(host)

    def context_server(name, hosts, room):
        return ContextServer(
            guids.mint(), f"cs-{name}", net,
            RangeDefinition(name, places=[room], hosts=[f"cs-{name}"] + hosts),
            building, registry, guids, lease_duration=30.0)

    servers = {"a": context_server("a", ["m0", "m1"], "L10.01"),
               "b": context_server("b", ["m1"], "L10.02")}
    rng = random.Random(seed)
    at = net.scheduler.schedule_at

    def entity(name, machine):
        return ContextEntity(Profile(guids.mint(), name, outputs=[TEMPERATURE]),
                             machine, net)

    entities, apps = [], {}
    for machine in MACHINES:
        for index in range(PER_MACHINE):
            ce = entity(f"ce{index}@{machine}", machine)
            entities.append(ce)
            at(rng.uniform(1.0, 20.0), ce.start)
        app = RecordingApp(
            Profile(guids.mint(), f"app@{machine}", EntityClass.SOFTWARE),
            machine, net)
        apps[machine] = app
        at(rng.uniform(1.0, 20.0), app.start)
        for server in servers.values():
            server.mediator.add_subscription(
                app.guid, TypeFilter("temperature"), owner="scenario")

    for step in range(60):
        ce = entities[rng.randrange(len(entities))]
        at(30.0 + 1.5 * step + rng.random(), ce.publish, TEMPERATURE, step)

    at(41.3, entities[2].stop)                    # on m0
    at(47.7, entities[PER_MACHINE + 3].crash)     # on m1
    late = entity("late@m0", "m0")
    daemon = servers["a"].range_services["m0"]
    at(50.2, setattr, daemon, "enabled", False)
    at(52.4, late.start)                          # nobody is listening
    at(60.1, setattr, daemon, "enabled", True)
    at(62.6, late.start)                          # a real component retries
    net.scheduler.run_until(130.0)

    return {
        "net": net,
        "log": log,
        "late_registered": late.registered,
        "registrations": {
            name: sorted((record.entity_hex, record.host_id)
                         for record in server.registrar.records())
            for name, server in servers.items()},
        "lease_groups": {
            service.name: sorted(service._members)
            for server in servers.values()
            for service in server.range_services.values()},
        "receipts": {
            machine: [(event.source.hex, event.value) for event in app.events]
            for machine, app in apps.items()},
        "in_range": {ce.name: ce.range_name for ce in entities},
    }


@pytest.fixture(scope="module")
def both():
    return run_deployment(Network), run_deployment(FloodNetwork)


class TestDifferential:
    def test_the_scenario_exercises_what_it_claims(self, both):
        production, _ = both
        assert production["late_registered"]
        # 8 CEs + 1 CAA on m0, minus the one that stopped, plus the late one
        on_m0 = [hex_ for hex_, host in production["registrations"]["a"]
                 if host == "m0"]
        assert len(on_m0) == PER_MACHINE + 1
        # everything on m1 took two offers; nothing on m2 took any
        ranges_on_m1 = {range_name for name, range_name
                        in production["in_range"].items() if name.endswith("@m1")}
        assert ranges_on_m1 == {"a", "b"}
        assert {range_name for name, range_name in production["in_range"].items()
                if name.endswith("@m2")} == {None}
        assert all(production["receipts"][machine] for machine in MACHINES)
        # m2's nine announces, and the late CE's first
        assert unheard(production["net"]) == {"component-up": PER_MACHINE + 2}

    def test_books_and_receipts_are_equal(self, both):
        production, reference = both
        for what in ("late_registered", "registrations", "lease_groups",
                     "receipts", "in_range"):
            assert production[what] == reference[what], what

    def test_event_log_equals_the_reference_minus_dead_letters(self, both):
        production, reference = both
        flood = reference["net"]
        assert flood.dead_letters, "the reference delivered no dead letter"
        heard = flood.heard_entries()
        assert production["log"].entries() == heard
        assert all(flood.event_log.entries()[position][3] == "component-up"
                   for position in flood.dead_letters)

    def test_dead_letters_are_the_whole_difference(self, both):
        production, reference = both
        saved = reference["net"].stats.delivered - production["net"].stats.delivered
        assert saved == len(reference["net"].dead_letters) > 0
        assert production["net"].stats.sent == reference["net"].stats.sent
        assert production["net"].stats.by_kind == reference["net"].stats.by_kind
        assert production["net"].scheduler.now == reference["net"].scheduler.now


# -- the table ----------------------------------------------------------------


def heard_by(network, host, kind="announce"):
    return list(network._listeners.get((host, kind), {}).values())


class TestListenerTable:
    def test_follows_attach_detach_and_reattach(self, network, guids):
        first = Listener(guids.mint(), "host-a", network, lambda m: None)
        FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        second = Listener(guids.mint(), "host-a", network, lambda m: None)
        elsewhere = Listener(guids.mint(), "host-b", network, lambda m: None)
        assert heard_by(network, "host-a") == [first, second]
        assert heard_by(network, "host-b") == [elsewhere]
        first.detach()
        assert heard_by(network, "host-a") == [second]
        network.attach(first)  # back, now last in attach order
        assert heard_by(network, "host-a") == [second, first]
        assert heard_by(network, "host-a", kind="other") == []

    def test_unlisten_then_listen_keeps_attach_order(self, network, guids):
        first = Listener(guids.mint(), "host-a", network, lambda m: None)
        second = Listener(guids.mint(), "host-a", network, lambda m: None)
        network.listen(first, on=False)
        assert heard_by(network, "host-a") == [second]
        assert network.process(first.guid) is first  # still attached
        network.listen(first)
        network.listen(first)  # idempotent
        assert heard_by(network, "host-a") == [first, second]

    def test_listen_on_a_detached_process_files_nothing(self, network, guids):
        gone = Listener(guids.mint(), "host-a", network, lambda m: None)
        gone.detach()
        network.listen(gone)
        assert heard_by(network, "host-a") == []

    def test_crashed_component_leaves_the_table(self, network, guids):
        class ListeningApp(ContextAwareApplication):
            listens_for = ("announce",)

        app = ListeningApp(Profile(guids.mint(), "app", EntityClass.SOFTWARE),
                           "host-a", network)
        assert heard_by(network, "host-a") == [app]
        app.crash()
        assert heard_by(network, "host-a") == []


class TestBroadcast:
    def test_two_listeners_on_one_machine_both_hear(self, network, guids):
        inboxes = [[], []]
        for inbox in inboxes:
            Listener(guids.mint(), "host-a", network, inbox.append)
        sender = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        sender.send(BROADCAST, "announce", {"n": 1})
        network.scheduler.run_until_idle()
        assert [[m.payload for m in inbox] for inbox in inboxes] == \
            [[{"n": 1}], [{"n": 1}]]
        assert inboxes[0][0].payload is not inboxes[1][0].payload
        assert network.stats.delivered == 2

    def test_the_sender_never_hears_itself(self, network, guids):
        inbox = []
        only = Listener(guids.mint(), "host-a", network, inbox.append)
        only.send(BROADCAST, "announce")
        network.scheduler.run_until_idle()
        assert inbox == []
        # a listening sender alone on its machine was heard by nobody
        assert unheard(network) == {"announce": 1}

    def test_unheard_counts_machines_without_a_listener(self, network, guids):
        Listener(guids.mint(), "host-a", network, lambda m: None)
        on_a = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        on_b = FunctionProcess(guids.mint(), "host-b", network, lambda m: None)
        FunctionProcess(guids.mint(), "host-b", network, lambda m: None)
        on_a.send(BROADCAST, "announce")
        assert unheard(network) == {}
        on_b.send(BROADCAST, "announce")
        assert unheard(network) == {"announce": 1}
        on_a.send(BROADCAST, "something-else")  # declared by nobody
        assert unheard(network) == {"announce": 1, "something-else": 1}
        network.scheduler.run_until_idle()
        assert network.stats.delivered == 1
        assert network.stats.sent == 3

    def test_checks_on_the_path_still_run(self, network, guids):
        inbox = []
        Listener(guids.mint(), "host-a", network, inbox.append)
        sender = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        network.fail_host("host-a")
        sender.send(BROADCAST, "announce")
        network.restore_host("host-a")
        sender.detach()
        sender.send(BROADCAST, "announce")
        network.scheduler.run_until_idle()
        assert inbox == []
        assert network.stats.dropped == 2  # host down, then detached sender

    def test_listener_detached_mid_flight_is_undeliverable(self, network, guids):
        inbox = []
        listener = Listener(guids.mint(), "host-a", network, inbox.append)
        sender = FunctionProcess(guids.mint(), "host-a", network, lambda m: None)
        sender.send(BROADCAST, "announce")
        listener.detach()
        network.scheduler.run_until_idle()
        assert inbox == [] and network.stats.undeliverable == 1
