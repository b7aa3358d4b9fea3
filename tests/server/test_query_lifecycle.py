"""One ledger entry per routing decision, one more per deferred resolution.

Each row drives one query down one path and pins the exact ``event``
sequence of its ``query`` entries and the status ``explain()`` reports:
an immediate outcome is a single entry, a parked or scheduled query adds
the entry of whatever resolved it — execution, expiry or a cancel.
"""

from types import SimpleNamespace

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.query.model import QueryBuilder


@pytest.fixture
def rig(network, deployed_range, registered_app):
    server, sensors = deployed_range
    return SimpleNamespace(network=network, server=server, sensors=sensors,
                           app=registered_app)


def _submit(rig, query, settle=5):
    rig.app.submit_query(query)
    rig.network.scheduler.run_for(settle)
    return rig.server, query.query_id


def _bob_enters(rig):
    rig.sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
    rig.network.scheduler.run_for(10)


def _parked(rig, until=None):
    when = "enters(bob, L10.01)" + (f" until({until})" if until else "")
    return _submit(rig, QueryBuilder("bob").profiles_of_type("device")
                   .when(when).build())


def _scheduled(rig, when="after(20)"):
    return _submit(rig, QueryBuilder("bob").profiles_of_type("device")
                   .when(when).build())


def executed(rig):
    return _submit(rig, QueryBuilder("bob").profiles_of_type("device").build())


def failed_no_provider(rig):
    return _submit(rig, QueryBuilder("ops")
                   .subscribe("printer-status", "record").build())


def expired_at_routing(rig):
    rig.network.scheduler.run_for(1)
    return _submit(rig, QueryBuilder("bob").profiles_of_type("device")
                   .when("now until(0.0001)").build())


def forwarded(_rig):
    sci = SCI(config=SCIConfig(seed=9))
    lobby = sci.create_range("lobby", places=["lobby", "L1"],
                             stations=["ap-lobby"])
    sci.create_range("level10", places=["L10"])
    sci.add_printers("level10", {"P1": "L10.03"})
    app = sci.create_application("app", host="cs-lobby")
    sci.run(10)
    query = (QueryBuilder("visitor").profiles_of_type("printer")
             .where("room:L10.03").build())
    app.submit_query(query)
    sci.run(10)
    return lobby, query.query_id


def parked_then_executed(rig):
    server, query_id = _parked(rig)
    _bob_enters(rig)
    return server, query_id


def parked_then_timed_out(rig):
    server, query_id = _parked(rig, until=rig.network.scheduler.now + 5)
    rig.network.scheduler.run_for(30)
    return server, query_id


def parked_then_expired_on_trigger(rig):
    expiry = rig.network.scheduler.now + 5
    server, query_id = _parked(rig, until=expiry)
    rig.network.scheduler.run_until(expiry)
    rig.server.location.update("bob", room="L10.01")
    rig.network.scheduler.run_for(5)
    return server, query_id


def scheduled_then_executed(rig):
    server, query_id = _scheduled(rig)
    rig.network.scheduler.run_for(30)
    return server, query_id


def scheduled_then_expired(rig):
    # the trigger lands after the expiry: the timer fires into a dead query
    until = rig.network.scheduler.now + 10
    server, query_id = _scheduled(rig, when=f"after(20) until({until})")
    rig.network.scheduler.run_for(30)
    return server, query_id


def parked_then_cancelled(rig):
    server, query_id = _parked(rig)
    rig.app.cancel_query(query_id)
    rig.network.scheduler.run_for(5)
    _bob_enters(rig)
    return server, query_id


def scheduled_then_cancelled(rig):
    server, query_id = _scheduled(rig)
    rig.app.cancel_query(query_id)
    rig.network.scheduler.run_for(30)
    return server, query_id


LIFECYCLES = [
    (executed, ["executed"], "executed"),
    (failed_no_provider, ["failed"], "failed"),
    (expired_at_routing, ["expired"], "expired"),
    (forwarded, ["forwarded"], "forwarded"),
    (parked_then_executed, ["parked", "executed"], "executed"),
    (parked_then_timed_out, ["parked", "expired"], "expired"),
    (parked_then_expired_on_trigger, ["parked", "expired"], "expired"),
    (scheduled_then_executed, ["scheduled", "executed"], "executed"),
    (scheduled_then_expired, ["scheduled", "expired"], "expired"),
    (parked_then_cancelled, ["parked", "cancelled"], "cancelled"),
    (scheduled_then_cancelled, ["scheduled", "cancelled"], "cancelled"),
]


@pytest.mark.parametrize("drive, events, status", LIFECYCLES,
                         ids=[row[0].__name__ for row in LIFECYCLES])
def test_lifecycle_entries_and_explain_status(rig, drive, events, status):
    server, query_id = drive(rig)
    trail = server.explain(query_id)
    assert [step["event"] for step in trail["steps"]] == events
    assert trail["status"] == status
    first = trail["steps"][0]
    assert {"mode", "when", "subscriber"} <= set(first)
    assert "status" not in first
    if status == "executed":
        assert "bound" in trail["steps"][-1]
    if status == "failed":
        assert "error" in trail["steps"][-1]


def test_cancel_stops_a_scheduled_query(rig):
    # the timer armed for the future When used to fire anyway and send a
    # query-result after the cancel
    server, query_id = _scheduled(rig)
    assert rig.app.query_acks[query_id]["status"] == "scheduled"
    rig.app.cancel_query(query_id)
    rig.network.scheduler.run_for(30)
    assert [r for r in rig.app.results if r["query_id"] == query_id] == []
    assert server.explain(query_id)["status"] == "cancelled"
