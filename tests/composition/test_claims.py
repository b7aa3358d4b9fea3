"""Binding-claim integrity across configurations.

Regression suite for a real bug: spawned template instances' bindings were
not recorded in the claims ledger, so a later query could hijack another
configuration's objLocation and silently re-bind it to a different subject.
"""

import pytest

from repro.core.types import TypeSpec
from repro.entities.profile import EntityClass, Profile
from tests.recording import RecordingApp


@pytest.fixture
def stack(network, guids, deployed_range):
    server, sensors = deployed_range
    app = RecordingApp(
        Profile(guids.mint(), "app", EntityClass.SOFTWARE), "host-b", network)
    app.start()
    network.scheduler.run_for(10)
    return server, sensors, app


class TestSpawnedClaims:
    def test_spawned_instance_bindings_claimed(self, stack):
        server, _, app = stack
        manager = server.configurations
        config = manager.deliver(TypeSpec("location", "topological", "ada"),
                                 app.guid.hex, "q1")
        spawned_hex = config.spawned[0].hex
        assert manager.bindings_of(spawned_hex) == {"subject": "ada"}

    def test_second_subject_gets_own_instance(self, stack):
        server, _, app = stack
        manager = server.configurations
        first = manager.deliver(TypeSpec("location", "topological", "ada"),
                                app.guid.hex, "q1")
        second = manager.deliver(TypeSpec("location", "topological", "john"),
                                 app.guid.hex, "q2")
        assert first is not second
        # each configuration owns a distinct objLocation instance
        assert set(first.node_guids.values()).isdisjoint(
            {h for h in second.node_guids.values()
             if manager.bindings_of(h) == {"subject": "john"}})

    def test_earlier_binding_not_clobbered(self, network, stack):
        """The original failure: john's query re-bound ada's objLocation."""
        server, sensors, app = stack
        manager = server.configurations
        manager.deliver(TypeSpec("location", "topological", "ada"),
                        app.guid.hex, "q1")
        manager.deliver(TypeSpec("location", "topological", "john"),
                        app.guid.hex, "q2")
        # ada's movements still reach the app after john's query
        sensors["door:corridor--L10.03"].detect("ada", "corridor", "L10.03")
        network.scheduler.run_for(10)
        ada_events = [e for e in app.events_of_type("location")
                      if e.subject == "ada"]
        assert ada_events and ada_events[-1].value == "L10.03"

    def test_same_subject_shares_instance(self, stack):
        server, _, app = stack
        manager = server.configurations
        first = manager.deliver(TypeSpec("location", "topological", "ada"),
                                app.guid.hex, "q1", reuse=False)
        second = manager.deliver(TypeSpec("location", "topological", "ada"),
                                 app.guid.hex, "q2", reuse=False)
        # distinct configs, but the ada-bound objLocation is reused live
        ada_holders = [h for h in second.node_guids.values()
                       if manager.bindings_of(h) == {"subject": "ada"}]
        assert ada_holders
        assert ada_holders[0] in first.node_guids.values()

    def test_claims_released_on_teardown(self, stack):
        server, _, app = stack
        manager = server.configurations
        config = manager.deliver(TypeSpec("location", "topological", "ada"),
                                 app.guid.hex, "q1")
        hexes = list(config.node_guids.values())
        manager.teardown(config.config_id)
        for entity_hex in hexes:
            assert manager.bindings_of(entity_hex) is None

    def test_shared_claim_survives_partial_release(self, stack):
        server, _, app = stack
        manager = server.configurations
        first = manager.deliver(TypeSpec("location", "topological", "ada"),
                                app.guid.hex, "q1", reuse=False)
        manager.deliver(TypeSpec("location", "topological", "ada"),
                        app.guid.hex, "q2", reuse=False)
        shared = next(h for h in first.node_guids.values()
                      if manager.bindings_of(h) == {"subject": "ada"})
        manager.teardown(first.config_id)
        # still claimed by the second configuration
        assert manager.bindings_of(shared) == {"subject": "ada"}


class TestUnboundAggregation:
    def test_unbound_input_wires_all_bound_instances(self, stack):
        """An occupancy-style consumer sees every tracked person."""
        server, _, app = stack
        manager = server.configurations
        for person in ("ada", "john", "bob"):
            manager.deliver(TypeSpec("location", "topological", person),
                            app.guid.hex, f"q-{person}")
        config = manager.deliver(TypeSpec("occupancy", "count", "L10"),
                                 app.guid.hex, "q-occ")
        occupancy_key = config.plan.output_key
        location_inputs = config.plan.inputs_of(occupancy_key)
        bound_subjects = set()
        for edge in location_inputs:
            node = config.plan.nodes[edge.producer]
            subject = node.bindings.get("subject")
            if subject:
                bound_subjects.add(subject)
        assert bound_subjects == {"ada", "john", "bob"}
