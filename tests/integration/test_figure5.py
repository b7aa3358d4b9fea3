"""Figure 5 end-to-end: the discovery sequence.

'When a Context Server starts up, it deploys a Range Service to all the
machines within its jurisdiction. The RS performs the task of listening for
CAAs or CEs starting up in order to inform them about the Range's Registrar.
... Upon completion of the registration process, the Registrar will return
the Context Server details to a CAA (in order to submit queries) or the
Event Mediator details to a CE (in order to publish events).'
"""

import pytest

from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication, ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.net.transport import Network, FixedLatency
from repro.core.ids import GuidFactory
from repro.core.types import standard_registry
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.server.context_server import ContextServer
from repro.server.range import RangeDefinition


@pytest.fixture
def multi_machine():
    """A range whose jurisdiction spans five machines."""
    net = Network(latency_model=FixedLatency(1.0), seed=13)
    guids = GuidFactory(seed=13)
    building = livingstone_tower()
    registry = register_location_converters(standard_registry(), building)
    machines = [f"machine-{i}" for i in range(5)]
    for machine in machines:
        net.add_host(machine)
    server = ContextServer(
        guids.mint(), machines[0], net,
        RangeDefinition("range", places=["livingstone"], hosts=machines),
        building, registry, guids)
    return net, guids, server, machines


class TestRangeServiceDeployment:
    def test_rs_on_every_machine(self, multi_machine):
        net, guids, server, machines = multi_machine
        assert set(server.range_services) == set(machines)
        for machine, service in server.range_services.items():
            assert service.host_id == machine

    def test_component_on_any_machine_discovers(self, multi_machine):
        net, guids, server, machines = multi_machine
        components = []
        for machine in machines:
            ce = ContextEntity(
                Profile(guids.mint(), f"ce@{machine}",
                        outputs=[TypeSpec("temperature", "celsius")]),
                machine, net)
            ce.start()
            components.append(ce)
        net.scheduler.run_for(10)
        assert all(ce.registered for ce in components)
        assert server.registrar.population() == len(machines)


class TestAddressHandout:
    def test_caa_gets_context_server(self, multi_machine):
        net, guids, server, machines = multi_machine
        app = ContextAwareApplication(
            Profile(guids.mint(), "app", EntityClass.SOFTWARE),
            machines[2], net)
        app.start()
        net.scheduler.run_for(10)
        assert app.context_server == server.guid

    def test_ce_gets_event_mediator(self, multi_machine):
        net, guids, server, machines = multi_machine
        ce = ContextEntity(
            Profile(guids.mint(), "ce",
                    outputs=[TypeSpec("temperature", "celsius")]),
            machines[3], net)
        ce.start()
        net.scheduler.run_for(10)
        assert ce.event_mediator == server.mediator.guid

    def test_discovery_latency_flat_in_machine_count(self, multi_machine):
        """The handshake is machine-local + two round trips, independent of
        how many machines the range spans."""
        net, guids, server, machines = multi_machine
        latencies = []
        for machine in machines:
            ce = ContextEntity(
                Profile(guids.mint(), f"timed@{machine}",
                        outputs=[TypeSpec("temperature", "celsius")]),
                machine, net)
            started = net.scheduler.now
            done = []
            ce.on_registered = lambda d=done: d.append(net.scheduler.now)
            ce.start()
            net.scheduler.run_for(20)
            latencies.append(done[0] - started)
        assert max(latencies) - min(latencies) < 1e-9  # identical handshakes


class TestHandshakeCost:
    def test_seventeenth_component_costs_four_deliveries(self, multi_machine):
        """Announce, offer, register, ack — however crowded the machine:
        the announce reaches the Range Service, not the sixteen neighbours."""
        net, guids, server, machines = multi_machine

        def component(index):
            ce = ContextEntity(
                Profile(guids.mint(), f"ce-{index}",
                        outputs=[TypeSpec("temperature", "celsius")]),
                machines[1], net)
            ce.start()
            return ce

        neighbours = [component(index) for index in range(16)]
        net.scheduler.run_for(5)  # settled, and short of the first heartbeat
        assert all(ce.registered for ce in neighbours)
        delivered = net.stats.delivered
        newcomer = component(16)
        net.scheduler.run_for(5)
        assert newcomer.registered
        assert net.stats.delivered - delivered == 4


class TestLateServer:
    def test_component_before_server_registers_after_probe(self):
        """A component that boots before its range exists can probe later."""
        net = Network(latency_model=FixedLatency(1.0), seed=14)
        guids = GuidFactory(seed=14)
        net.add_host("m0")
        ce = ContextEntity(
            Profile(guids.mint(), "early",
                    outputs=[TypeSpec("temperature", "celsius")]),
            "m0", net)
        ce.start()
        net.scheduler.run_for(10)
        assert not ce.registered
        building = livingstone_tower()
        registry = register_location_converters(standard_registry(), building)
        ContextServer(guids.mint(), "m0", net,
                      RangeDefinition("late", places=["livingstone"],
                                      hosts=["m0"]),
                      building, registry, guids)
        ce.start()  # announce again (a real component retries)
        net.scheduler.run_for(10)
        assert ce.registered
