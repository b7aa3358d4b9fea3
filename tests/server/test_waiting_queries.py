"""The Context Server's book of waiting queries.

A parked (``enters``) or scheduled (``at``/``after``) query waits in one
book and arms at most one timer, at the earlier of its trigger and its
``until``. The timer, or a matching location fix, releases it: it
executes, or, once its ``until`` has come, expires with a failed
``query-result``. Nothing else runs on the server's behalf, so an idle
server owns no timer. The network of these fixtures delivers every
message one time unit after it is sent.
"""

import pytest

from repro.query.model import QueryBuilder

HOP = 1.0


def _server_timers(network, server):
    """The live timers whose callback is one of ``server``'s methods."""
    return [entry[4] for entry in network.scheduler._heap
            if entry[4] is not None and not entry[4].cancelled
            and getattr(entry[5], "__self__", None) is server]


def _submit(network, app, when):
    query = (QueryBuilder("bob").profiles_of_type("device")
             .when(when).build())
    app.submit_query(query)
    network.scheduler.run_for(HOP + 1)
    return query.query_id


def _results(app, query_id):
    return [result for result in app.results
            if result["query_id"] == query_id]


def _expiry_time(server, query_id):
    [entry] = [entry for entry in server.ledger_entries()
               if entry.kind == "query"
               and entry.payload["query_id"] == query_id
               and entry.payload["event"] == "expired"]
    return entry.sim_time


def test_a_scheduled_query_past_its_until_is_answered_at_its_expiry(
        network, deployed_range, registered_app):
    server, _ = deployed_range
    until = network.scheduler.now + 10
    query_id = _submit(network, registered_app, f"after(20) until({until:g})")
    assert registered_app.query_acks[query_id]["status"] == "scheduled"
    network.scheduler.run_until(until + HOP)
    assert _results(registered_app, query_id) == [{
        "query_id": query_id, "ok": False,
        "error": "query expired while waiting"}]
    assert _expiry_time(server, query_id) == until
    assert [step["event"] for step in server.explain(query_id)["steps"]] \
        == ["scheduled", "expired"]
    network.scheduler.run_for(30)  # its trigger passes: nothing more
    assert len(_results(registered_app, query_id)) == 1
    assert server.queries_failed == 1 and server.queries_executed == 0


def test_a_parked_query_is_answered_one_hop_after_its_until(
        network, deployed_range, registered_app):
    server, _ = deployed_range
    until = network.scheduler.now + 13.5
    query_id = _submit(network, registered_app,
                       f"enters(bob, L10.01) until({until:g})")
    assert server.parked_queries() != []
    network.scheduler.run_until(until)
    assert server.parked_queries() == []
    assert _results(registered_app, query_id) == []
    network.scheduler.run_until(until + HOP)
    assert _results(registered_app, query_id) == [{
        "query_id": query_id, "ok": False,
        "error": "query expired while waiting"}]
    assert _expiry_time(server, query_id) == until


def test_an_idle_server_owns_no_timer(network, deployed_range,
                                      registered_app):
    server, _ = deployed_range
    assert _server_timers(network, server) == []
    query_id = _submit(network, registered_app, "after(5)")
    assert len(_server_timers(network, server)) == 1
    network.scheduler.run_for(10)
    assert server.explain(query_id)["status"] == "executed"
    assert _server_timers(network, server) == []


@pytest.mark.parametrize("when", [
    "enters(bob, L10.01)", "enters(bob, L10.01) until(500)", "after(50)",
    "at(400) until(300)"])
def test_a_waiting_query_arms_at_most_one_timer(network, deployed_range,
                                                registered_app, when):
    server, _ = deployed_range
    _submit(network, registered_app, when)
    expected = 0 if when == "enters(bob, L10.01)" else 1
    assert len(_server_timers(network, server)) == expected


def test_shutdown_disarms_every_waiting_timer(network, deployed_range,
                                              registered_app):
    server, _ = deployed_range
    _submit(network, registered_app, "after(50)")
    _submit(network, registered_app, "enters(bob, L10.01) until(500)")
    assert len(_server_timers(network, server)) == 2
    server.shutdown()
    assert _server_timers(network, server) == []


def test_shutdown_answers_every_waiting_query(network, deployed_range,
                                              registered_app):
    """A range that leaves fails what it holds: each parked or scheduled
    query gets a failed ``query-result`` and a ``failed`` ledger entry
    before the server detaches."""
    server, _ = deployed_range
    scheduled = _submit(network, registered_app, "after(50)")
    parked = _submit(network, registered_app, "enters(bob, L10.01) until(500)")
    server.shutdown()
    assert server.parked_queries() == []
    for query_id, waited in ((scheduled, "scheduled"), (parked, "parked")):
        assert [step["event"] for step in server.explain(query_id)["steps"]] \
            == [waited, "failed"]
    network.scheduler.run_for(HOP + 1)
    assert [_results(registered_app, query_id)
            for query_id in (scheduled, parked)] == [
        [{"query_id": query_id, "ok": False, "error": "range shut down"}]
        for query_id in (scheduled, parked)]
    assert server.queries_failed == 2


def test_cancel_disarms_the_timer(network, deployed_range, registered_app):
    server, _ = deployed_range
    query_id = _submit(network, registered_app,
                       "enters(bob, L10.01) until(500)")
    registered_app.cancel_query(query_id)
    network.scheduler.run_for(HOP + 1)
    assert _server_timers(network, server) == []
    assert server.parked_queries() == []
    assert server.explain(query_id)["status"] == "cancelled"


def test_a_second_query_with_a_waiting_id_is_refused(
        network, deployed_range, registered_app):
    server, _ = deployed_range
    first = (QueryBuilder("bob").profiles_of_type("device")
             .when("after(20)").with_id("q-twice").build())
    second = (QueryBuilder("bob").profiles_of_type("device")
              .when("after(5)").with_id("q-twice").build())
    registered_app.submit_query(first)
    network.scheduler.run_for(HOP + 1)
    registered_app.submit_query(second)
    network.scheduler.run_for(HOP + 1)
    assert _results(registered_app, "q-twice") == [{
        "query_id": "q-twice", "ok": False,
        "error": "query q-twice is already waiting"}]
    network.scheduler.run_for(30)
    assert [step["event"] for step in server.explain("q-twice")["steps"]] \
        == ["scheduled", "failed", "executed"]
    assert _results(registered_app, "q-twice")[-1]["ok"] is True
