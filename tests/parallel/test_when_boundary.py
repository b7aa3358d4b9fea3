"""The enters-trigger vs expiry-timer race, pinned across schedulers.

A parked ``enters(...) until(T)`` query has two ways to leave the
Context Server's book of waiting queries: the triggering entry event, or
its own expiry timer, armed at ``T``. When the entry lands exactly at
``T`` the two are same-sim-time work items, and which runs first is the
scheduler's tie rule (the canonical key and the reference heap's
insertion order need not agree). The When boundary is inclusive
precisely so the order cannot matter: at ``now == T`` the trigger path
refuses exactly where the timer would expire it, so the production
scheduler and the single-heap reference report the same single "query
expired while waiting" failure and zero executions.
"""


import pytest

from repro.core.ids import GuidFactory
from repro.core.types import standard_registry
from repro.entities.profile import EntityClass, Profile
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.net.transport import FixedLatency, Network
from repro.query.model import QueryBuilder
from repro.server.context_server import ContextServer
from repro.server.deployment import standard_templates
from repro.server.range import RangeDefinition
from tests.parallel.single_heap import SingleHeapScheduler
from tests.recording import RecordingApp

#: the until() instant: the query's expiry timer and an entry fix
#: scheduled at it collide at equal sim-time
EXPIRY = 30.0


def run_boundary_scenario(reference_heap=False, fix_time=EXPIRY, seed=11):
    """One mini deployment; returns the observable outcome of the race."""
    net = Network(scheduler=SingleHeapScheduler() if reference_heap else None,
                  latency_model=FixedLatency(1.0), seed=seed)
    net.add_host("host-a")
    net.add_host("host-b")
    guids = GuidFactory(seed=7)
    building = livingstone_tower()
    registry = register_location_converters(standard_registry(), building)
    definition = RangeDefinition("livingstone", places=["livingstone"],
                                 hosts=["host-a", "host-b"])
    server = ContextServer(
        guids.mint(), "host-a", net,
        definition=definition, building=building, registry=registry,
        guid_factory=guids,
        templates=standard_templates(guids, building),
        lease_duration=30.0,
    )
    app = RecordingApp(
        Profile(guids.mint(), "boundary-app", EntityClass.SOFTWARE),
        "host-b", net)
    app.start()
    net.scheduler.run_until(20)

    query = (QueryBuilder("bob").profiles_of_type("device")
             .when(f"enters(bob, L10.01) until({EXPIRY:g})").build())
    app.submit_query(query)
    net.scheduler.run_until(25)
    parked_before = len(server.parked_queries())
    # the entry fix lands as a timer at the chosen instant, as the expiry
    # does: at fix_time == EXPIRY they are same-sim-time rivals
    net.scheduler.schedule_at(fix_time, server.location.update,
                              "bob", "L10.01")
    net.scheduler.run_until(EXPIRY + 10)

    return {
        "parked_before": parked_before,
        "parked_after": len(server.parked_queries()),
        "executed": server.queries_executed,
        "failed": server.queries_failed,
        "acks": sorted(ack["status"] for ack in app.query_acks.values()),
        "results": [(r.get("ok"), r.get("error")) for r in app.results],
    }


@pytest.fixture(scope="module")
def reference():
    """The production scheduler's outcome the reference heap must match."""
    return run_boundary_scenario()


def test_boundary_expires_instead_of_executing(reference):
    assert reference["parked_before"] == 1
    assert reference["parked_after"] == 0
    assert reference["executed"] == 0
    assert reference["failed"] == 1
    assert (False, "query expired while waiting") in reference["results"]
    assert all(ok is not True for ok, _ in reference["results"])


def test_classic_scheduler_matches_single_lane(reference):
    assert run_boundary_scenario(reference_heap=True) == reference


def test_trigger_before_expiry_still_wins():
    """Off the boundary the race disappears: the entry fix at T-0.5
    executes the query before its expiry timer fires."""
    outcome = run_boundary_scenario(fix_time=EXPIRY - 0.5)
    assert outcome["failed"] == 0
    assert outcome["executed"] == 1
    assert any(ok for ok, _ in outcome["results"])
