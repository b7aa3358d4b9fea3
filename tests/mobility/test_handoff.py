"""Handoff: server-side profile attributes follow the component."""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.entities.profile import Profile
from repro.ledger.replay import (live_snapshot, projection_snapshot,
                                 snapshot_digest)
from repro.server.registrar import RegistrationRecord


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=5))
    sci.create_range("lobby", places=["lobby"], stations=["ap-lobby"])
    sci.create_range("level10", places=["L10"])
    sci.add_person("bob", room=None, device_host="bob-pda")
    app = sci.create_application("app:bob", host="bob-pda", owner="bob")
    sci.start_boundary_monitor()
    sci.run(5)
    return sci, app


class TestHandoff:
    def test_attributes_carried_between_ranges(self, deployment):
        sci, app = deployment
        sci.teleport("bob", "lobby")
        sci.run(10)
        # the lobby range accumulates server-side knowledge about the app
        lobby = sci.range("lobby")
        lobby.profiles.update_attributes(app.guid.hex,
                                         {"preferred_printer": "P1"})
        sci.teleport("bob", "L10.01")
        sci.run(15)
        level10 = sci.range("level10")
        profile = level10.profiles.get(app.guid.hex)
        assert profile is not None
        assert profile.attributes.get("preferred_printer") == "P1"
        assert sci.handoff.handoffs >= 1

    def test_replay_goes_through_the_profile_manager(self, deployment):
        """Carried attributes are ledgered like any other profile update."""
        sci, app = deployment
        sci.teleport("bob", "lobby")
        sci.run(10)
        sci.range("lobby").profiles.update_attributes(
            app.guid.hex, {"preferred_printer": "P1"})
        level10 = sci.range("level10")
        updates = level10.profiles.updates
        sci.teleport("bob", "L10.01")
        sci.run(15)
        # the arrival is the Registrar's entry; the replay is the one update
        assert level10.profiles.updates == updates + 1
        assert (snapshot_digest(projection_snapshot(
                    level10.ledger_projection()))
                == snapshot_digest(live_snapshot(level10)))

    def test_fresh_values_win_over_carried(self, deployment):
        sci, app = deployment
        sci.teleport("bob", "lobby")
        sci.run(10)
        sci.range("lobby").profiles.update_attributes(
            app.guid.hex, {"owner": "someone-else"})
        sci.teleport("bob", "L10.01")
        sci.run(15)
        profile = sci.range("level10").profiles.get(app.guid.hex)
        # the component re-registered with owner=bob; handoff must not
        # clobber the fresh registration value
        assert profile.attributes["owner"] == "bob"

    def test_carry_arms_no_timer_and_lands_on_registration(self, deployment):
        """The target range waits on the arrival itself, not on a poll."""
        sci, app = deployment
        level10 = sci.range("level10")
        assert level10.profiles.get(app.guid.hex) is None
        departed = RegistrationRecord(profile=Profile(
            app.guid, app.profile.name,
            attributes={"preferred_printer": "P1"}), kind="caa")
        scheduler = sci.network.scheduler
        pending = scheduler.pending
        sci.handoff.carry(departed, target=level10)
        assert scheduler.pending == pending
        sci.teleport("bob", "L10.01")
        sci.run(15)
        profile = level10.profiles.get(app.guid.hex)
        assert profile.attributes["preferred_printer"] == "P1"

    def test_carry_to_a_registered_component_applies_at_once(self, deployment):
        sci, app = deployment
        sci.teleport("bob", "L10.01")
        sci.run(15)
        level10 = sci.range("level10")
        updates = level10.profiles.updates
        departed = RegistrationRecord(profile=Profile(
            app.guid, app.profile.name,
            attributes={"visits": 3, "owner": "someone-else"}), kind="caa")
        sci.handoff.carry(departed, target=level10)
        profile = level10.profiles.get(app.guid.hex)
        assert (profile.attributes["visits"], profile.attributes["owner"]) \
            == (3, "bob")
        assert level10.profiles.updates == updates + 1

    def test_no_attributes_no_handoff_entry(self, building):
        from repro.mobility.handoff import HandoffCoordinator
        from repro.server.registrar import RegistrationRecord
        from repro.entities.profile import Profile
        from repro.core.ids import GuidFactory
        coordinator = HandoffCoordinator()
        record = RegistrationRecord(
            profile=Profile(GuidFactory(1).mint(), "bare"), kind="caa")
        coordinator.carry(record, target=None)  # no attrs: no-op
        assert coordinator.handoffs == 0
