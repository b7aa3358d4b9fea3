"""Path display app: the Figure-3 configuration from the app's side."""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.apps.pathfinder import PathDisplayApp


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=6))
    sci.create_range("livingstone", places=["livingstone"], hosts=["pda"])
    sci.add_door_sensors("livingstone")
    sci.add_person("bob", room="corridor")
    sci.add_person("john", room="corridor")
    display = sci.create_application("floorMap", host="pda",
                                     app_class=PathDisplayApp,
                                     from_entity="bob", to_entity="john")
    sci.run(5)
    return sci, display


class TestTracking:
    def test_initial_render_without_data(self, deployment):
        _, display = deployment
        assert "locating" in display.render()

    def test_track_requires_endpoints(self, network, guids):
        from repro.entities.profile import Profile
        app = PathDisplayApp(Profile(guids.mint(), "x"), "host-a", network)
        with pytest.raises(ValueError):
            app.track()

    def test_path_appears_after_movement(self, deployment):
        sci, display = deployment
        display.track()
        sci.run(5)
        sci.walk("bob", "L10.01")
        sci.walk("john", "L10.02")
        sci.run(40)
        assert display.current_path is not None
        assert display.current_path["rooms"] == ["L10.01", "corridor", "L10.02"]
        assert "26" in display.render() or "m)" in display.render()

    def test_live_updates_on_movement(self, deployment):
        sci, display = deployment
        display.track()
        sci.run(5)
        sci.walk("bob", "L10.01")
        sci.walk("john", "L10.02")
        sci.run(40)
        updates_before = display.updates_seen
        sci.walk("john", "open-area")
        sci.run(60)
        assert display.updates_seen > updates_before
        assert display.current_path["rooms"][-1] == "open-area"

    def test_retrack_cancels_previous_query(self, deployment):
        sci, display = deployment
        display.track()
        sci.run(5)
        first_query = display.query.query_id
        display.track(to_entity="eve")
        sci.run(5)
        assert display.query.query_id != first_query
        cs = sci.range("livingstone")
        owners = {d.query_id
                  for config in cs.configurations.configurations()
                  for d in config.deliveries}
        assert first_query not in owners
