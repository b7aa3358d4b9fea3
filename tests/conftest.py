"""Shared fixtures for the SCI reproduction test suite."""

import pytest

from repro.core.ids import GuidFactory
from repro.core.types import standard_registry
from repro.entities.profile import EntityClass, Profile
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.net.transport import FixedLatency, Network
from repro.server.context_server import ContextServer
from repro.server.deployment import deploy_door_sensors, standard_templates
from repro.server.range import RangeDefinition
from tests.recording import RecordingApp


@pytest.fixture
def network():
    """A network with deterministic unit latency."""
    net = Network(latency_model=FixedLatency(1.0), seed=42)
    net.add_host("host-a")
    net.add_host("host-b")
    return net


@pytest.fixture
def guids():
    return GuidFactory(seed=7)


@pytest.fixture
def building():
    return livingstone_tower()


@pytest.fixture
def registry(building):
    return register_location_converters(standard_registry(), building)


@pytest.fixture
def deployed_range(network, guids, building, registry):
    """A full single-range deployment: CS + utilities + door sensors.

    Returns (context_server, sensors dict). Time has advanced to t<=20 so
    all infrastructure is registered.
    """
    definition = RangeDefinition("livingstone", places=["livingstone"],
                                 hosts=["host-a", "host-b"])
    server = ContextServer(
        guids.mint(), "host-a", network,
        definition=definition, building=building, registry=registry,
        guid_factory=guids,
        templates=standard_templates(guids, building),
        lease_duration=30.0,
    )
    sensors = deploy_door_sensors(building, "host-a", network, guids)
    network.scheduler.run_until(20)
    return server, sensors


@pytest.fixture
def registered_app(network, guids, deployed_range):
    """A recording CAA registered in the deployed range."""
    app = RecordingApp(
        Profile(guids.mint(), "test-app", EntityClass.SOFTWARE),
        "host-b", network)
    app.start()
    network.scheduler.run_for(10)
    assert app.registered
    return app


def run(network, duration):
    """Advance a network's clock (helper, not a fixture)."""
    return network.scheduler.run_for(duration)
