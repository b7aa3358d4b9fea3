"""Interleaving property: the boundary monitor never drifts from the full scan.

Walks, teleports, departures from the building, people arriving after the
monitor started and ranges created after it started are interleaved at
random, with anything from a fraction of a tick to several ticks between
them, on a tower with room-bounded ranges and the station-bounded lobby
range (``tests/mobility/reference_scan.py`` has the script format and the
driver). For every script and seed the movement-driven monitor and the
full-population reference report the same ``(tick time, entity, from, to)``
transitions in the same order, end with the same attribution, and leave
every application registered with the same range — while the monitor looks
at no more entities than the reference does.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.mobility.reference_scan import (
    MAX_PEOPLE,
    ROOMS,
    ReferenceScanMonitor,
    run_script,
)

people = st.integers(0, MAX_PEOPLE - 1)
rooms = st.sampled_from(ROOMS)
walks = st.tuples(st.just("walk"), people, rooms)
teleports = st.tuples(st.just("teleport"), people, rooms)
#: 0.25 and 0.5 put several steps inside one tick; 1.0 lands a step exactly
#: on a tick boundary; the long ones let a walk cross several doors
pauses = st.tuples(st.just("run"),
                   st.sampled_from([0.25, 0.5, 1.0, 1.75, 3.0, 8.0]))
steps = st.one_of(
    walks, walks, walks, teleports, teleports, pauses, pauses, pauses, pauses,
    st.tuples(st.just("leave"), people),
    st.tuples(st.just("add"), st.one_of(st.none(), rooms)),
    st.tuples(st.just("range")),
)
scripts = st.lists(steps, min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(script=scripts, seed=st.integers(0, 2**16))
# at a door the point lies on two rooms and the first-declared one counts:
# p1 is attributed to ``offices`` at the office's centre, not at its door
@example(script=[("teleport", 1, "corridor"), ("walk", 1, "L10.01"),
                 ("run", 8.0), ("run", 8.0)], seed=1)
# two transitions in one tick come out in world order, not in moving order
@example(script=[("run", 3.0), ("teleport", 1, "L10.01"),
                 ("teleport", 0, "L10.02")], seed=1)
# a late range claims somebody who has not moved since before it existed
@example(script=[("teleport", 1, "L10.03"), ("run", 3.0), ("range",)], seed=1)
def test_monitor_equals_full_scan(script, seed):
    script = script + [("run", 3.0)]  # the last step gets its tick
    log, monitor, registered = run_script(script, seed=seed)
    ref_log, reference, ref_registered = run_script(
        script, ReferenceScanMonitor, seed=seed)
    assert log == ref_log
    assert monitor.attribution() == reference.attribution()
    assert registered == ref_registered
    assert monitor.transitions == reference.transitions == len(log)
    assert monitor.evaluated <= reference.evaluated
