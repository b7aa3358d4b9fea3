"""The full-population boundary scan, kept as the monitor's equivalence reference.

Every tick re-derives the governing range of every device-carrying entity in
the world by walking every range's ``governs_place`` and then every range's
``governs_point``, whether or not anyone moved. That was
``BoundaryMonitor.scan`` in ``mobility/detection.py`` before the monitor
kept a room -> range map and evaluated only the entities the world moved
since the last tick. ``test_detection.py`` and the Hypothesis interleaving
property (``tests/properties/test_prop_boundary.py``) require the monitor
to report the same ``(tick time, entity, from, to)`` transitions in the same
order. Only the scan and the range search are swapped — the transition
itself (handoff, expulsion, admission) is the production monitor's own.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import SCI, SCIConfig
from repro.core.errors import LocationError
from repro.location.geometry import Point
from repro.mobility.detection import BoundaryMonitor
from repro.mobility.world import PhysicalEntity
from repro.server.context_server import ContextServer

#: (tick time, entity key, range left or None, range entered or None)
Transition = Tuple[float, str, Optional[str], Optional[str]]


class ReferenceScanMonitor(BoundaryMonitor):
    """:class:`BoundaryMonitor` that looks at everybody, every tick (what
    the inherited ``on_move`` hook notes is never read)."""

    def scan(self) -> int:
        changed = 0
        for entity in self.world.entities():
            if entity.device_host is None:
                continue  # only device-carrying entities register components
            self.evaluated += 1
            current = self._governing_range(entity)
            previous = self._range_of.get(entity.key)
            current_name = current.definition.name if current else None
            if current_name == previous:
                continue
            changed += 1
            self.transitions += 1
            self._transition(entity, previous, current)
            self._range_of[entity.key] = current_name
        return changed

    def _governing_range(self, entity: PhysicalEntity) -> Optional[ContextServer]:
        building = self.world.building
        room = building.room_at(entity.position)
        if room is not None:
            for server in self.ranges:
                if server.definition.governs_place(building, room):
                    return server
        for server in self.ranges:
            if server.definition.governs_point(building, entity.position):
                return server
        return None


def record_transitions(monitor: BoundaryMonitor) -> List[Transition]:
    """Log every transition ``monitor`` makes from now on, in order."""
    log: List[Transition] = []
    transition = monitor._transition

    def recording(entity, previous_name, current):
        log.append((monitor.world.scheduler.now, entity.key, previous_name,
                    current.definition.name if current else None))
        transition(entity, previous_name, current)

    monitor._transition = recording
    return log


# -- one script, two monitors -------------------------------------------------
#
# A script is a list of steps over the Livingstone Tower:
#   ("run", seconds)            advance the clock (the monitor ticks each 1.0)
#   ("walk", n, room)           person n walks (no-op outdoors / locked out)
#   ("teleport", n, room)       person n is placed in a room
#   ("leave", n)                person n walks out of the building
#   ("add", room or None)       the next person arrives, PDA in hand
#   ("range",)                  the next late range is created
# Person and range indices past what exists are no-ops, so any list of steps
# is a valid script.

ROOMS = ["lobby", "corridor", "L10.01", "L10.02", "L10.03", "open-area",
         "L10.05"]
#: the station-bounded lobby range overhears the whole tower (100 m), so it
#: governs wherever no room-bounded range does; ``offices`` is room-bounded
EARLY_RANGES = [("lobby", ["lobby"], ["ap-lobby"]),
                ("offices", ["L10.01", "L10.02"], [])]
#: created while the monitor runs: one claims rooms the lobby's radio held,
#: one re-claims a governed room (and must not displace), one takes the rest
LATE_RANGES = [("print", ["L10.03", "corridor"], []),
               ("offices-again", ["L10.01"], []),
               ("level10", ["L10"], [])]
MAX_PEOPLE = 5


def run_script(script, monitor_class=BoundaryMonitor, seed: int = 3):
    """Run ``script`` on a fresh deployment watched by ``monitor_class``.

    Returns ``(transition log, monitor, {app name: range registered with})``.
    Two people (one outdoors, one in the lobby) exist before the monitor
    starts; everyone else, and every late range, joins it running.
    """
    sci = SCI(config=SCIConfig(seed=seed))
    for name, places, stations in EARLY_RANGES:
        sci.create_range(name, places=places, stations=stations)
    people: List[str] = []
    apps = {}
    late = list(LATE_RANGES)

    def add(room: Optional[str]) -> None:
        if len(people) < MAX_PEOPLE:
            key = f"p{len(people)}"
            people.append(key)
            sci.add_person(key, room=room, device_host=f"{key}-pda")
            apps[key] = sci.create_application(f"app:{key}",
                                               host=f"{key}-pda", owner=key)

    add(None)
    add("lobby")
    sci.add_person("badge-only", room="corridor")  # no device: never looked at
    if monitor_class is not BoundaryMonitor:
        sci._monitor = monitor_class(
            sci.world, list(sci.ranges.values()), handoff=sci.handoff)
    monitor = sci.start_boundary_monitor()
    log = record_transitions(monitor)
    for step in script:
        op, args = step[0], step[1:]
        if op == "run":
            sci.run(args[0])
        elif op == "add":
            add(args[0])
        elif op == "range":
            if late:
                name, places, stations = late.pop(0)
                sci.create_range(name, places=places, stations=stations)
        elif op not in ("walk", "teleport", "leave"):
            raise ValueError(f"unknown step {step!r}")
        elif args[0] < len(people):
            key = people[args[0]]
            if op == "walk":
                try:
                    sci.walk(key, args[1])
                except LocationError:
                    pass  # outdoors, or behind a door this walker cannot open
            elif op == "teleport":
                sci.teleport(key, args[1])
            else:
                sci.world.leave_building(key, Point(-200.0 - args[0], -200.0))
    registered = {name: (app.range_name if app.registered else None)
                  for name, app in apps.items()}
    return log, monitor, registered
