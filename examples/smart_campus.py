#!/usr/bin/env python3
"""A smart-campus dashboard: occupancy and climate from one infrastructure.

Demonstrates that SCI's composition model is not location-specific: the same
query machinery aggregates door-sensor presence into floor occupancy counts
(an OccupancyCE bound to a place) and smooths thermometer streams through a
windowed mean — two very different context types, zero bespoke wiring.

Also exercises a quality-of-context contract (the paper's future-work
item 2): the dashboard's location feed demands accuracy <= 3 m, which keeps
the coarse W-LAN source out of its configuration.

Run:  python examples/smart_campus.py
"""

from repro import SCI
from repro.core.api import SCIConfig
from repro.core.types import TypeSpec
from repro.entities.derived import WindowAggregatorCE
from repro.entities.entity import ContextAwareApplication
from repro.entities.sensors import TemperatureSensorCE


class Dashboard(ContextAwareApplication):
    """Keeps each feed it subscribes to: the events received, by type."""

    def __init__(self, *args):
        super().__init__(*args)
        self.feeds = {}

    def on_event(self, event, sub_id):
        self.feeds.setdefault(event.type_name, []).append(event)


def main() -> None:
    sci = SCI(config=SCIConfig(seed=21))
    sci.create_range("campus", places=["livingstone"], hosts=["ops-pc"])
    sci.add_door_sensors("campus")
    sci.add_wlan_detector("campus")

    # climate instrumentation: a thermometer per office + a smoothing stage;
    # each office's baseline and noise seed come from its room number
    # (hash() of a str is salted per interpreter, so it would change the
    # output run to run)
    cs = sci.range("campus")
    for room in ("L10.01", "L10.02", "L10.03"):
        thermo = TemperatureSensorCE(sci.guids.mint(), "cs-campus",
                                     sci.network, room=room,
                                     baseline=20.0 + int(room[-1]) % 3,
                                     interval=5.0, seed=int(room[-2:]))
        thermo.start()
    smoother = WindowAggregatorCE(sci.guids.mint(), "cs-campus", sci.network,
                                  TypeSpec("temperature", "celsius"),
                                  operation="mean", window=5)
    smoother.start()

    # people moving about
    for person, room in (("bob", "corridor"), ("john", "corridor"),
                         ("ada", "lobby")):
        sci.add_person(person, room=room)

    dashboard = sci.create_application("dashboard", host="ops-pc",
                                       app_class=Dashboard)
    sci.run(5)

    # one query per context need — the infrastructure does the wiring.
    # Per-person tracking first (each spawns a bound objLocation CE); the
    # occupancy aggregation then wires onto those live location providers.
    precise_location_query = (sci.query("ops")
                              .subscribe("location", "topological",
                                         subject="bob")
                              .which("quality(accuracy<=3)")
                              .build())
    dashboard.submit_query(precise_location_query)
    for person in ("john", "ada"):
        dashboard.submit_query(
            sci.query("ops").subscribe("location", "topological",
                                       subject=person).build())
    sci.run(5)

    occupancy_query = (sci.query("ops")
                       .subscribe("occupancy", "count", subject="L10")
                       .build())
    climate_query = (sci.query("ops")
                     .subscribe("temperature", "mean-celsius")
                     .build())
    dashboard.submit_query(occupancy_query)
    dashboard.submit_query(climate_query)
    sci.run(5)

    print("== the workday begins ==")
    sci.walk("bob", "L10.01")
    sci.walk("john", "L10.02")
    sci.run(30)
    sci.walk("ada", "L10.03")
    sci.run(60)

    occupancy = [e.value for e in dashboard.feeds["occupancy"]]
    print(f"L10 occupancy trace: {occupancy}")
    assert occupancy[-1] == 3, "all three people are on Level 10"

    temperatures = [e.value for e in dashboard.feeds["temperature"]]
    print(f"smoothed temperature readings: {len(temperatures)} "
          f"(latest {temperatures[-1]:.1f} C)")
    assert temperatures, "the climate stream must flow"

    bob_feed = [e.value for e in dashboard.feeds["location"]
                if e.subject == "bob"]
    print(f"bob location feed (accuracy<=3m contract): {bob_feed}")
    assert bob_feed[-1] == "L10.01"
    bob_config = next(c for c in cs.configurations.configurations()
                      if c.wanted.subject == "bob")
    bob_nodes = {node.profile.name for node in bob_config.plan.nodes.values()}
    assert not any("wlan" in name for name in bob_nodes), \
        "the QoC contract must keep the coarse W-LAN source out of bob's chain"

    print("\n== lunchtime ==")
    sci.walk("bob", "lobby")
    sci.run(60)
    occupancy = [e.value for e in dashboard.feeds["occupancy"]]
    print(f"L10 occupancy trace: {occupancy}")
    assert occupancy[-1] == 2

    print("\none infrastructure, three context types, zero bespoke wiring")


if __name__ == "__main__":
    main()
