#!/usr/bin/env python3
"""The Figure-3 configuration: a live path display between two people.

A floor-map application asks for the path between Bob and John. The Query
Resolver discovers the chain by type matching over CE profiles — door
sensors provide ``presence``, an objLocation template turns presence into
``location`` per person, and a path template turns two locations into
``path`` — then the Context Server wires the event subscription graph. When
John moves, the display updates without anyone re-querying.

Run:  python examples/path_tracker.py
"""

from repro import SCI
from repro.apps.pathfinder import PathDisplayApp


def main() -> None:
    sci = SCI()
    sci.create_range("livingstone", places=["livingstone"], hosts=["pda"])
    sci.add_door_sensors("livingstone")
    sci.add_person("bob", room="corridor")
    sci.add_person("john", room="corridor")

    display = sci.create_application("floorMap", host="pda",
                                     app_class=PathDisplayApp,
                                     from_entity="bob", to_entity="john")
    sci.run(5)
    display.track()
    sci.run(5)
    print(display.render())

    print("\n== both walk to their offices ==")
    sci.walk("bob", "L10.01")
    sci.walk("john", "L10.02")
    sci.run(40)
    print(display.render())

    print("\n== John heads for the open area ==")
    sci.walk("john", "open-area")
    sci.run(60)
    print(display.render())

    print(f"\nconfiguration delivered {display.updates_seen} live updates;")
    print("the application never re-queried — Figure 3's dynamic "
          "subscription graph did the work.")
    assert display.current_path is not None
    assert display.current_path["rooms"][0] == "L10.01"
    assert display.current_path["rooms"][-1] == "open-area"


if __name__ == "__main__":
    main()
