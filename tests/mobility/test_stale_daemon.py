"""A mobile machine keeps one *listening* Range Service: the range it is in.

``admit_host`` deploys a daemon on a walker's PDA; when the PDA leaves, the
boundary monitor releases the host and the daemon is switched off (it stays
attached, it stops hearing ``component-up`` and offers nothing). Before that
rule a PDA collected a daemon per range it ever visited and a component
started later registered with all of them.
"""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.entities.entity import ContextAwareApplication
from repro.location.geometry import Point

ROOMS = {"r0": "L10.01", "r1": "L10.02", "r2": "L10.03"}


class OfferCountingApp(ContextAwareApplication):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.offers = []

    def _handle_range_offer(self, message):
        self.offers.append(message.payload["range"])
        super()._handle_range_offer(message)


@pytest.fixture
def walked():
    """Bob's PDA has been through r0 and r1 and now sits in r2."""
    sci = SCI(config=SCIConfig(seed=7))
    for name, room in ROOMS.items():
        sci.create_range(name, places=[room])
    sci.add_person("bob", room=None, device_host="pda")
    sci.start_boundary_monitor()
    for room in ROOMS.values():
        sci.teleport("bob", room)
        sci.run(10)
    return sci


def daemon(sci, range_name):
    return sci.range(range_name).range_services["pda"]


def unheard(sci):
    return sci.network.obs.metrics.get("net.messages.unheard").by_label()


def test_late_component_gets_one_offer_and_registers_where_bob_is(walked):
    sci = walked
    app = sci.create_application("late", host="pda", owner="bob",
                                 app_class=OfferCountingApp)
    held_elsewhere = set()
    for _ in range(10):
        sci.run(1)
        held_elsewhere |= {name for name in ("r0", "r1")
                           if sci.range(name).registrar.registered(app.guid.hex)}
    assert app.offers == ["r2"]
    assert app.registered and app.range_name == "r2"
    assert sci.range("r2").registrar.registered(app.guid.hex)
    assert held_elsewhere == set()
    assert unheard(sci) == {}


def test_only_the_current_ranges_daemon_listens(walked):
    sci = walked
    assert [daemon(sci, name).enabled for name in ROOMS] == [False, False, True]
    on_pda = {process.name for process in sci.network.processes_on("pda")}
    # switched off, not detached: re-entry switches the same daemon back on
    assert {f"range-service:{name}@pda" for name in ROOMS} <= on_pda


def test_reentry_reuses_the_daemon(walked):
    sci = walked
    first = daemon(sci, "r0")
    minted = len(sci.guids._minted)
    processes_before = len(sci.network.processes_on("pda"))
    sci.teleport("bob", ROOMS["r0"])
    sci.run(10)
    assert daemon(sci, "r0") is first and first.enabled
    assert not daemon(sci, "r2").enabled
    assert len(sci.network.processes_on("pda")) == processes_before
    assert len(sci.guids._minted) == minted  # no GUID drawn on re-entry
    app = sci.create_application("late", host="pda", owner="bob",
                                 app_class=OfferCountingApp)
    sci.run(10)
    assert app.offers == ["r0"] and app.range_name == "r0"


def test_static_jurisdiction_keeps_its_daemon():
    """A machine named in the range definition is never released."""
    sci = SCI(config=SCIConfig(seed=7))
    sci.create_range("r0", places=[ROOMS["r0"]], hosts=["desk"])
    sci.create_range("r1", places=[ROOMS["r1"]])
    sci.add_person("bob", room=ROOMS["r0"], device_host="desk")
    sci.start_boundary_monitor()
    sci.run(5)
    sci.teleport("bob", ROOMS["r1"])
    sci.run(10)
    assert sci.range("r0").range_services["desk"].enabled
    assert sci.range("r1").range_services["desk"].enabled


def test_leaving_every_range_leaves_an_unheard_announce(walked):
    sci = walked
    sci.world.leave_building("bob", Point(-500, -500))
    sci.run(10)
    assert not any(daemon(sci, name).enabled for name in ROOMS)
    app = sci.create_application("late", host="pda", owner="bob",
                                 app_class=OfferCountingApp)
    sci.run(10)
    assert app.offers == [] and not app.registered
    assert unheard(sci) == {"component-up": 1}
