"""Every id is minted by its owner, inside the deployment.

A process numbers its messages, a mediator its subscriptions, a
Configuration Manager its configurations and an application the queries
it names, so one deployment run twice in one Python process gives the
same ids both times: the same ledger heads, the same ``query-ack`` ids and
the same exported trace.
"""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.core.errors import QueryError, SCIError
from repro.obs.export import span_lines
from tests.recording import RecordingApp


def _run():
    sci = SCI(config=SCIConfig(seed=4))
    sci.create_range("lobby", places=["lobby", "L1"], stations=["ap-lobby"])
    sci.create_range("level10", places=["L10"])
    sci.add_door_sensors("level10")
    sci.add_printers("level10", {"P1": "L10.03"})
    sci.add_person("bob", room="corridor")
    app = sci.create_application("tracker", host="cs-level10",
                                 app_class=RecordingApp)
    visitor = sci.create_application("visitor", host="cs-lobby")
    sci.run(5)
    app.submit_query(sci.query("bob").subscribe(
        "location", "topological", subject="bob").build())
    visitor.submit_query(sci.query("visitor").profiles_of_type("printer")
                         .where("room:L10.03").build())
    visitor.submit_query(sci.query("visitor").profiles_of_type("printer")
                         .with_id("printers").build())
    sci.run(5)
    sci.walk("bob", "L10.01")
    sci.run(30)
    assert app.last_event_value() == "L10.01"
    return {
        "heads": {name: server.ledger.head
                  for name, server in sorted(sci.ranges.items())},
        "acks": [list(app.query_acks), list(visitor.query_acks)],
        "trace": list(span_lines(sci.network.obs.tracer)),
    }


def test_one_deployment_run_twice_in_one_process_repeats_its_ids():
    first, second = _run(), _run()
    assert second == first
    assert first["acks"] == [["tracker:1"], ["visitor:1", "printers"]]
    assert first["trace"]


def test_an_application_names_each_unnamed_query_it_queues_or_submits():
    sci = SCI(config=SCIConfig(seed=4))
    sci.create_range("level10", places=["L10"])
    sci.add_printers("level10", {"P1": "L10.03"})
    app = sci.create_application("app", host="cs-level10")
    queued = sci.query("app").profiles_of_type("printer").build()
    app.queue_query(queued)          # offline: named now, sent on register
    assert queued.query_id == "app:1"
    sci.run(5)
    submitted = sci.query("app").profiles_of_type("printer").build()
    app.submit_query(submitted)
    sci.run(5)
    assert submitted.query_id == "app:2"
    assert sorted(app.query_acks) == ["app:1", "app:2"]


def test_application_names_are_unique_in_a_deployment():
    """Two same-named applications would mint the same query ids."""
    sci = SCI(config=SCIConfig(seed=4))
    sci.create_application("app", host="h1")
    with pytest.raises(SCIError, match="duplicate application"):
        sci.create_application("app", host="h2")
    assert list(sci.applications) == ["app"]


def test_a_server_refuses_an_unnamed_in_process_query():
    """An unnamed query could be neither answered nor filed: both entry
    points raise, and nothing reaches the ledger."""
    sci = SCI(config=SCIConfig(seed=4))
    server = sci.create_range("level10", places=["L10"])
    sci.add_printers("level10", {"P1": "L10.03"})
    app = sci.create_application("app", host="cs-level10")
    sci.run(5)
    entries = len(server.ledger_entries())
    for enter in (server.accept_query, server.execute_query):
        unnamed = sci.query("app").profiles_of_type("printer").build()
        with pytest.raises(QueryError, match="needs an id"):
            enter(unnamed, app.guid.hex)
    assert len(server.ledger_entries()) == entries
