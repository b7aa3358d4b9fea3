"""F5 — Figure 5: the discovery sequence.

Reproduced series: announce->registered latency for components starting on
machines of a range whose jurisdiction spans M machines, M in {1, 5, 25}.
Expected shape: flat — discovery is machine-local (the Range Service answers
on the same host) plus one registrar round trip, independent of M. And flat
in the machine's population: the announce is delivered to the Range Service,
not to the components already there, so a handshake is four *deliveries*
with 0, 15 or 63 neighbours (before the listener table: 4 / 19 / 67).
"""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec, standard_registry
from repro.entities.entity import ContextEntity
from repro.entities.profile import Profile
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.net.transport import FixedLatency, Network
from repro.server.context_server import ContextServer
from repro.server.range import RangeDefinition


def build_range(machine_count, seed=0):
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    guids = GuidFactory(seed=seed)
    building = livingstone_tower()
    registry = register_location_converters(standard_registry(), building)
    machines = [f"m-{index}" for index in range(machine_count)]
    for machine in machines:
        net.add_host(machine)
    server = ContextServer(
        guids.mint(), machines[0], net,
        RangeDefinition("range", places=["livingstone"], hosts=machines),
        building, registry, guids, lease_duration=1e9)
    return net, guids, server, machines


def discovery_latency(net, guids, machine):
    ce = ContextEntity(
        Profile(guids.mint(), f"probe@{machine}@{net.scheduler.now}",
                outputs=[TypeSpec("temperature", "celsius")]),
        machine, net)
    started = net.scheduler.now
    done = []
    ce.on_registered = lambda: done.append(net.scheduler.now)
    ce.start()
    net.scheduler.run_for(20)
    assert done, "registration must complete"
    return done[0] - started


class TestReportFigure5:
    def test_report_latency_flat_in_jurisdiction_size(self, report):
        report("")
        report("F5  discovery sequence latency vs jurisdiction size")
        report(f"{'machines':>9} | {'mean announce->registered':>25}")
        means = []
        for machine_count in (1, 5, 25):
            net, guids, server, machines = build_range(machine_count)
            samples = [discovery_latency(net, guids, machine)
                       for machine in machines[:5]]
            mean = sum(samples) / len(samples)
            means.append(mean)
            report(f"{machine_count:>9} | {mean:>25.2f}")
        assert max(means) - min(means) < 0.5  # flat

    def test_report_handshake_step_count(self, report):
        """The Figure-5 sequence is exactly: announce, offer, register,
        ack — two local hops + one registrar round trip."""
        net, guids, server, machines = build_range(2)
        net.stats.reset()
        discovery_latency(net, guids, machines[1])
        kinds = net.stats.by_kind
        report(f"handshake messages: component-up={kinds['component-up']}, "
               f"range-offer={kinds['range-offer']}, "
               f"register={kinds['register']}, "
               f"register-ack={kinds['register-ack']}")
        assert kinds["component-up"] == 1
        assert kinds["range-offer"] == 1
        assert kinds["register"] == 1
        assert kinds["register-ack"] == 1
        assert net.stats.delivered == 4  # sent and *delivered*: nobody else heard

    def test_report_deliveries_flat_in_machine_population(self, report):
        """Four deliveries per handshake however many components already
        live on the machine (a copy per neighbour would make it 4 + n)."""
        report("")
        report("F5  deliveries per handshake vs components already on the machine")
        report(f"{'neighbours':>11} | {'delivered':>9}")
        for neighbours in (0, 15, 63):
            net, guids, server, machines = build_range(2)
            for _ in range(neighbours):
                discovery_latency(net, guids, machines[1])
            net.stats.reset()
            discovery_latency(net, guids, machines[1])
            report(f"{neighbours:>11} | {net.stats.delivered:>9}")
            assert net.stats.delivered == 4
            assert net.stats.registry.get("net.messages.unheard").total() == 0


class TestBenchFigure5:
    @pytest.mark.parametrize("machine_count", [1, 5, 25])
    def test_bench_discovery(self, benchmark, machine_count):
        def run():
            net, guids, _server, machines = build_range(machine_count)
            discovery_latency(net, guids, machines[-1])

        benchmark.pedantic(run, rounds=3, iterations=1)
