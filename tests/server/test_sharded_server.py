"""End-to-end Context Server with sharded mediator and resolver."""

import pytest

from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.events.sharding import ShardedEventMediator
from repro.query.model import QueryBuilder
from repro.server.context_server import ContextServer
from repro.server.deployment import deploy_door_sensors, standard_templates
from repro.server.range import RangeDefinition


@pytest.fixture
def sharded_range(network, guids, building, registry):
    """The deployed_range fixture, but with both shard knobs turned on."""
    definition = RangeDefinition("livingstone", places=["livingstone"],
                                 hosts=["host-a", "host-b"])
    server = ContextServer(
        guids.mint(), "host-a", network,
        definition=definition, building=building, registry=registry,
        guid_factory=guids,
        templates=standard_templates(guids, building),
        lease_duration=30.0,
        mediator_shards=3,
        resolver_shards=2,
    )
    sensors = deploy_door_sensors(building, "host-a", network, guids)
    network.scheduler.run_until(20)
    return server, sensors


@pytest.fixture
def sharded_app(network, guids, sharded_range):
    app = ContextAwareApplication(
        Profile(guids.mint(), "test-app", EntityClass.SOFTWARE),
        "host-b", network)
    app.start()
    network.scheduler.run_for(10)
    assert app.registered
    return app


class TestShardedServer:
    def test_wiring(self, sharded_range):
        server, _ = sharded_range
        assert isinstance(server.mediator, ShardedEventMediator)
        assert server.mediator.shard_count == 3
        assert server.resolver.shard_count == 2

    def test_subscription_streams_updates(self, network, sharded_range,
                                          sharded_app):
        server, sensors = sharded_range
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob").build())
        sharded_app.submit_query(query)
        network.scheduler.run_for(10)
        assert sharded_app.query_acks[query.query_id]["status"] == "executed"
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        sensors["door:corridor--L10.01"].detect("bob", "L10.01", "corridor")
        network.scheduler.run_for(10)
        values = [e.value for e in sharded_app.events_of_type("location")]
        assert values == ["L10.01", "corridor"]

    def test_one_time_stops_after_first(self, network, sharded_range,
                                        sharded_app):
        server, sensors = sharded_range
        query = (QueryBuilder("ops")
                 .once("location", "topological", subject="bob").build())
        sharded_app.submit_query(query)
        network.scheduler.run_for(10)
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        sensors["door:corridor--L10.01"].detect("bob", "L10.01", "corridor")
        network.scheduler.run_for(10)
        assert len(sharded_app.events_of_type("location")) == 1

    def test_registration_flows_as_resolver_delta(self, network, sharded_range,
                                                  sharded_app):
        server, _ = sharded_range
        # warm the resolver's shard slices with a query
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob").build())
        sharded_app.submit_query(query)
        network.scheduler.run_for(10)
        deltas = server.resolver.index_deltas
        # a CAA registering is a None-delta on every built slice
        extra = ContextAwareApplication(
            Profile(server.guids.mint(), "extra-app", EntityClass.SOFTWARE),
            "host-b", network)
        extra.start()
        network.scheduler.run_for(10)
        assert extra.registered
        assert server.resolver.index_deltas > deltas

    def test_departure_cleans_sharded_state(self, network, sharded_range,
                                            sharded_app):
        server, sensors = sharded_range
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob").build())
        sharded_app.submit_query(query)
        network.scheduler.run_for(10)
        before = server.mediator.subscription_count
        assert before > 0
        assert server.expel_entity(sharded_app.profile.entity_id.hex)
        network.scheduler.run_for(10)
        assert server.mediator.subscription_count < before

    def test_shutdown_detaches_all_shards(self, network, sharded_range):
        server, _ = sharded_range
        shard_guids = [server.mediator.shard(shard_id).guid
                       for shard_id in server.mediator.shard_ids()]
        server.shutdown()
        for guid in [server.mediator.guid, *shard_guids]:
            assert network.process(guid) is None
