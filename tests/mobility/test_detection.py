"""Boundary monitor: admission, expulsion, W-LAN-bounded ranges."""

import random

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.location.geometry import Point
from tests.mobility.reference_scan import (
    ROOMS,
    ReferenceScanMonitor,
    run_script,
)


@pytest.fixture
def deployment():
    sci = SCI(config=SCIConfig(seed=4))
    sci.create_range("lobby", places=["lobby"], stations=["ap-lobby"])
    sci.create_range("level10", places=["L10"])
    sci.add_person("bob", room=None, device_host="bob-pda")
    app = sci.create_application("app:bob", host="bob-pda", owner="bob")
    sci.start_boundary_monitor()
    sci.run(5)
    return sci, app


class TestAdmission:
    def test_outside_no_registration(self, deployment):
        sci, app = deployment
        assert not app.registered

    def test_entering_lobby_registers(self, deployment):
        sci, app = deployment
        sci.teleport("bob", "lobby")
        sci.run(10)
        assert app.registered
        assert app.range_name == "lobby"

    def test_moving_to_level10_switches_range(self, deployment):
        sci, app = deployment
        sci.teleport("bob", "lobby")
        sci.run(10)
        sci.teleport("bob", "L10.01")
        sci.run(10)
        assert app.registered
        assert app.range_name == "level10"
        lobby = sci.range("lobby")
        assert not lobby.registrar.registered(app.guid.hex)

    def test_leaving_all_ranges_deregisters(self, deployment):
        sci, app = deployment
        sci.teleport("bob", "lobby")
        sci.run(10)
        sci.world.leave_building("bob", Point(-500, -500))
        sci.run(10)
        assert not app.registered

    def test_transition_counted(self, deployment):
        sci, app = deployment
        monitor = sci.start_boundary_monitor()
        sci.teleport("bob", "lobby")
        sci.run(10)
        sci.teleport("bob", "L10.01")
        sci.run(10)
        assert monitor.transitions >= 2
        assert monitor.range_of("bob") == "level10"

    def test_tag_only_entities_ignored_by_monitor(self, deployment):
        sci, _ = deployment
        monitor = sci.start_boundary_monitor()
        sci.add_person("walker", room="lobby")  # no device
        before = monitor.transitions
        sci.run(10)
        assert monitor.transitions == before


def seeded_script(seed: int, steps: int = 120):
    """Walks, teleports and departures with a tick or several between them;
    three people and the three late ranges join at fixed points."""
    rng = random.Random(seed)
    script = []
    for index in range(steps):
        if index in (2, 5, 9):
            script.append(("add", rng.choice([None] + ROOMS)))
        if index in (30, 60, 90):
            script.append(("range",))
        person = rng.randrange(5)
        roll = rng.random()
        if roll < 0.55:
            script.append(("walk", person, rng.choice(ROOMS)))
        elif roll < 0.85:
            script.append(("teleport", person, rng.choice(ROOMS)))
        else:
            script.append(("leave", person))
        script.append(("run", rng.choice([0.4, 1.0, 2.5, 5.0])))
    return script


class TestMovementDrivenScan:
    def test_same_transitions_as_the_full_scan(self):
        script = seeded_script(17)
        log, monitor, registered = run_script(script)
        ref_log, reference, ref_registered = run_script(
            script, ReferenceScanMonitor)
        assert log == ref_log
        assert registered == ref_registered
        assert monitor.attribution() == reference.attribution()
        # the script reaches every kind of transition it is there to cover
        arrivals = {(left, entered) for _, _, left, entered in log}
        assert len(log) >= 30
        assert ("lobby", "print") in arrivals      # a late range took a room
        assert ("offices", None) in arrivals or ("lobby", None) in arrivals
        assert not any(entered == "offices-again" for _, entered in arrivals)
        assert monitor.evaluated < reference.evaluated / 4

    def test_late_range_claims_an_entity_standing_still(self):
        script = [("teleport", 1, "L10.03"), ("run", 5), ("range",), ("run", 2)]
        log, _, registered = run_script(script)
        assert [(key, left, entered) for _, key, left, entered in log
                if key == "p1"] == [("p1", None, "lobby"),
                                    ("p1", "lobby", "print")]
        assert log == run_script(script, ReferenceScanMonitor)[0]

    def test_idle_ticks_evaluate_nobody(self, deployment):
        sci, _ = deployment
        monitor = sci.start_boundary_monitor()
        sci.teleport("bob", "lobby")
        sci.run(5)
        evaluated = monitor.evaluated
        assert evaluated > 0
        sci.run(100)  # 100 ticks, nobody moves
        assert monitor.evaluated == evaluated
        sci.teleport("bob", "L10.01")
        sci.run(1)
        assert monitor.evaluated == evaluated + 1
        assert monitor.range_of("bob") == "level10"

    def test_stop_detaches_from_the_world(self, deployment):
        sci, _ = deployment
        monitor = sci.start_boundary_monitor()
        assert monitor._note in sci.world.on_move
        monitor.stop()
        monitor.stop()
        assert monitor._note not in sci.world.on_move
        sci.teleport("bob", "lobby")
        sci.run(5)
        assert monitor.range_of("bob") is None


class TestScanValidation:
    def test_invalid_interval_rejected(self, building):
        from repro.mobility.detection import BoundaryMonitor
        from repro.mobility.world import World
        from repro.net.sim import Scheduler
        world = World(building, Scheduler())
        with pytest.raises(ValueError):
            BoundaryMonitor(world, [], handoff=None, scan_interval=0)
