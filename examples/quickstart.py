#!/usr/bin/env python3
"""Quickstart: one range, one sensor network, one live context stream.

Builds the synthetic Livingstone Tower, creates a range for Level 10,
instruments its doors, and subscribes an application to Bob's location. As
Bob walks, door sensors fire, the infrastructure composes the
doorSensor -> objLocation chain automatically, and the app receives typed
location events.

Run:  python examples/quickstart.py
"""

from repro import SCI
from repro.entities.entity import ContextAwareApplication


class WhereIsBob(ContextAwareApplication):
    """Keeps the location updates it receives: an application records what
    it needs in its ``on_event`` hook."""

    def __init__(self, *args):
        super().__init__(*args)
        self.locations = []

    def on_event(self, event, sub_id):
        if event.type_name == "location":
            self.locations.append(event)


def main() -> None:
    sci = SCI()  # default: the synthetic Livingstone Tower, seed 0

    # A range for the whole building, governed by one Context Server, with
    # one lab machine in its jurisdiction (Figure 5's "deploys a Range
    # Service to all the machines").
    sci.create_range("livingstone", places=["livingstone"], hosts=["lab-pc"])
    sci.add_door_sensors("livingstone")

    # A person wearing an ID badge, starting in the corridor.
    sci.add_person("bob", room="corridor")

    # An application on the lab machine; it discovers the range and
    # registers via the Figure-5 handshake when started.
    app = sci.create_application("whereIsBob", host="lab-pc",
                                 app_class=WhereIsBob)
    sci.run(5)  # let registration settle
    assert app.registered, "the app should have joined the range"
    print(f"app registered in range {app.range_name!r}")

    # Subscribe to Bob's location. The Query Resolver chains an
    # objLocation CE (spawned from a template) onto every door sensor.
    query = sci.query("bob").subscribe("location", "topological",
                                       subject="bob").build()
    app.submit_query(query)
    sci.run(5)
    print(f"query acknowledged: {app.query_acks[query.query_id]['status']}")

    # Bob walks to his office, then to the print room; each sensed door
    # crossing produces a location event at the app.
    sci.walk("bob", "L10.01")
    sci.run(30)
    sci.walk("bob", "L10.03")
    sci.run(40)

    print("location updates received:")
    for event in app.locations:
        print(f"  t={event.timestamp:7.2f}  bob is in {event.value}")
    assert app.locations[-1].value == "L10.03"
    print("final answer:", app.locations[-1].value)


if __name__ == "__main__":
    main()
