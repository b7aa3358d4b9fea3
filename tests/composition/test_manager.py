"""Configuration Manager: instantiation, reuse, teardown, repair."""

import pytest

from repro.core.errors import NoProviderError
from repro.core.types import TypeSpec
from repro.composition.manager import ConfigState
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.query.model import QueryBuilder
from tests.recording import RecordingApp


@pytest.fixture
def stack(network, guids, deployed_range):
    """(server, sensors, app) — registered and settled."""
    server, sensors = deployed_range
    app = RecordingApp(
        Profile(guids.mint(), "app", EntityClass.SOFTWARE), "host-b", network)
    app.start()
    network.scheduler.run_for(10)
    assert app.registered
    return server, sensors, app


class TestInstantiation:
    def test_deliver_builds_and_subscribes(self, network, stack):
        server, sensors, app = stack
        manager = server.configurations
        config = manager.deliver(TypeSpec("location", "topological", "bob"),
                                 subscriber_hex=app.guid.hex, query_id="q1")
        assert config.state == ConfigState.ACTIVE
        assert manager.builds == 1
        # spawned CE is on the range's books
        assert all(server.registrar.registered(h)
                   for h in config.node_guids.values())
        # the data flows
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        network.scheduler.run_for(10)
        assert app.last_event_value() == "L10.01"

    def test_one_time_delivery(self, network, stack):
        server, sensors, app = stack
        server.configurations.deliver(TypeSpec("location", "topological", "bob"),
                                      subscriber_hex=app.guid.hex,
                                      query_id="q1", one_time=True)
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        sensors["door:corridor--L10.01"].detect("bob", "L10.01", "corridor")
        network.scheduler.run_for(10)
        assert len(app.events_of_type("location")) == 1

    def test_no_provider_propagates(self, stack):
        server, _, app = stack
        with pytest.raises(NoProviderError):
            server.configurations.deliver(TypeSpec("printer-status", "record"),
                                          subscriber_hex=app.guid.hex,
                                          query_id="q1")


class TestReuse:
    def test_same_wanted_reuses_configuration(self, network, guids, stack):
        server, _, app = stack
        other = ContextAwareApplication(
            Profile(guids.mint(), "app2", EntityClass.SOFTWARE),
            "host-b", network)
        other.start()
        network.scheduler.run_for(10)
        wanted = TypeSpec("location", "topological", "bob")
        first = server.configurations.deliver(wanted, app.guid.hex, "q1")
        second = server.configurations.deliver(wanted, other.guid.hex, "q2")
        assert first is second
        assert server.configurations.reuse_hits == 1
        assert server.configurations.builds == 1

    def test_reuse_delivers_to_both(self, network, guids, stack):
        server, sensors, app = stack
        other = RecordingApp(
            Profile(guids.mint(), "app2", EntityClass.SOFTWARE),
            "host-b", network)
        other.start()
        network.scheduler.run_for(10)
        wanted = TypeSpec("location", "topological", "bob")
        server.configurations.deliver(wanted, app.guid.hex, "q1")
        server.configurations.deliver(wanted, other.guid.hex, "q2")
        sensors["door:corridor--L10.02"].detect("bob", "corridor", "L10.02")
        network.scheduler.run_for(10)
        assert app.last_event_value() == "L10.02"
        assert other.last_event_value() == "L10.02"

    def test_reuse_disabled_builds_fresh(self, stack):
        server, _, app = stack
        wanted = TypeSpec("location", "topological", "bob")
        first = server.configurations.deliver(wanted, app.guid.hex, "q1")
        second = server.configurations.deliver(wanted, app.guid.hex, "q2",
                                               reuse=False)
        assert first is not second


class TestReuseIndex:
    """Reuse is looked up by wanted spec, earliest ACTIVE configuration first."""

    @staticmethod
    def _two_configs(stack):
        server, _, app = stack
        manager = server.configurations
        wanted = TypeSpec("location", "topological", "bob")
        first = manager.deliver(wanted, app.guid.hex, "q1")
        second = manager.deliver(wanted, app.guid.hex, "q2", reuse=False)
        return manager, app, first, second

    def test_equal_spec_picks_the_earliest_active(self, stack):
        manager, app, first, _ = self._two_configs(stack)
        equal = TypeSpec.of("location", "topological", "bob")
        assert manager.deliver(equal, app.guid.hex, "q3") is first
        assert manager.reuse_hits == 1

    @pytest.mark.parametrize("state", [ConfigState.REPAIRING, ConfigState.DEAD])
    def test_inactive_configurations_are_skipped(self, stack, state):
        manager, app, first, second = self._two_configs(stack)
        first.state = state
        wanted = TypeSpec("location", "topological", "bob")
        assert manager.deliver(wanted, app.guid.hex, "q3") is second
        second.state = state
        third = manager.deliver(wanted, app.guid.hex, "q4")
        assert third not in (first, second)
        assert manager.builds == 3

    def test_teardown_and_cancel_leave_no_stale_entry(self, stack):
        manager, app, first, second = self._two_configs(stack)
        wanted = TypeSpec("location", "topological", "bob")
        manager.teardown(first.config_id)
        assert manager.deliver(wanted, app.guid.hex, "q3") is second
        manager.cancel_query("q2")
        manager.cancel_query("q3")
        assert wanted not in manager._by_wanted
        fresh = manager.deliver(wanted, app.guid.hex, "q4")
        assert fresh not in (first, second)
        assert manager._by_wanted == {wanted: [fresh]}


class TestTeardown:
    def test_cancel_query_tears_down_unused(self, network, stack):
        server, sensors, app = stack
        manager = server.configurations
        wanted = TypeSpec("location", "topological", "bob")
        config = manager.deliver(wanted, app.guid.hex, "q1")
        spawned = list(config.spawned)
        manager.cancel_query("q1")
        assert manager.active_count() == 0
        # spawned CEs were stopped and removed from the network
        for guid in spawned:
            assert network.process(guid) is None
        # no further deliveries
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        network.scheduler.run_for(10)
        assert app.events_of_type("location") == []

    def test_cancel_keeps_config_with_other_users(self, network, guids, stack):
        server, _, app = stack
        other = ContextAwareApplication(
            Profile(guids.mint(), "app2", EntityClass.SOFTWARE),
            "host-b", network)
        other.start()
        network.scheduler.run_for(10)
        wanted = TypeSpec("location", "topological", "bob")
        server.configurations.deliver(wanted, app.guid.hex, "q1")
        server.configurations.deliver(wanted, other.guid.hex, "q2")
        server.configurations.cancel_query("q1")
        assert server.configurations.active_count() == 1


class TestRepair:
    def test_sensor_death_repairs_configuration(self, network, stack):
        server, sensors, app = stack
        manager = server.configurations
        config = manager.deliver(TypeSpec("location", "topological", "bob"),
                                 app.guid.hex, "q1")
        victim = sensors["door:corridor--L10.01"]
        affected = manager.handle_entity_departure(victim.guid.hex)
        assert affected == [config]
        assert config.state == ConfigState.ACTIVE
        assert config.repairs == 1
        assert victim.guid.hex not in config.node_guids.values()
        # remaining sensors still feed the app
        sensors["door:corridor--L10.02"].detect("bob", "corridor", "L10.02")
        network.scheduler.run_for(10)
        assert app.last_event_value() == "L10.02"

    def test_repair_skips_a_consumed_one_time_output(self, network, stack):
        """A one-time output the mediator consumed and dropped is answered;
        repairing its configuration must not attach it a second time."""
        server, sensors, app = stack
        manager = server.configurations
        config = manager.deliver(TypeSpec("location", "topological", "bob"),
                                 app.guid.hex, "q1", one_time=True)
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        network.scheduler.run_for(10)
        assert len(app.events_of_type("location")) == 1
        victim = sensors["door:corridor--L10.01"]
        assert manager.handle_entity_departure(victim.guid.hex) == [config]
        assert config.state == ConfigState.ACTIVE
        sensors["door:corridor--L10.02"].detect("bob", "corridor", "L10.02")
        network.scheduler.run_for(10)
        assert len(app.events_of_type("location")) == 1
        assert config.deliveries == []

    def test_repair_keeps_an_unconsumed_one_time_output(self, network, stack):
        """A one-time output that has not fired yet survives the repair and
        fires once, from the repaired graph."""
        server, sensors, app = stack
        manager = server.configurations
        config = manager.deliver(TypeSpec("location", "topological", "bob"),
                                 app.guid.hex, "q1", one_time=True)
        victim = sensors["door:corridor--L10.01"]
        manager.handle_entity_departure(victim.guid.hex)
        assert [d.query_id for d in config.deliveries] == ["q1"]
        sensors["door:corridor--L10.02"].detect("bob", "corridor", "L10.02")
        sensors["door:corridor--L10.02"].detect("bob", "L10.02", "corridor")
        network.scheduler.run_for(10)
        assert [event.value for event in app.events_of_type("location")] \
            == ["L10.02"]

    def test_unrepairable_goes_dead_and_notifies(self, network, stack):
        server, sensors, app = stack
        manager = server.configurations
        config = manager.deliver(TypeSpec("location", "topological", "bob"),
                                 app.guid.hex, "q1")
        for sensor in sensors.values():
            manager.handle_entity_departure(sensor.guid.hex)
        # without door sensors AND without a wlan detector there is no
        # location source left at all
        assert config.state == ConfigState.DEAD
        network.scheduler.run_for(10)
        failures = [r for r in app.results if not r.get("ok", True)]
        assert failures and "unrepairable" in failures[0]["error"]

    def test_departure_of_unrelated_entity_no_repair(self, network, guids, stack):
        server, _, app = stack
        manager = server.configurations
        manager.deliver(TypeSpec("location", "topological", "bob"),
                        app.guid.hex, "q1")
        assert manager.handle_entity_departure(guids.mint().hex) == []
        assert manager.repairs == 0
