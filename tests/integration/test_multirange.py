"""Multi-range behaviour: SCINET forwarding, directory, grouping."""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.net.transport import FixedLatency
from repro.query.model import QueryBuilder
from tests.recording import RecordingApp


@pytest.fixture
def two_ranges():
    sci = SCI(config=SCIConfig(seed=9))
    lobby = sci.create_range("lobby", places=["lobby", "L1"],
                             stations=["ap-lobby"])
    level10 = sci.create_range("level10", places=["L10"])
    sci.add_door_sensors("level10",
                         rooms=level10.definition.rooms(sci.building) + ["lobby"])
    sci.add_printers("level10", {"P1": "L10.03"})
    sci.run(5)
    return sci, lobby, level10


class TestDirectory:
    def test_both_nodes_know_all_places(self, two_ranges):
        sci, lobby, level10 = two_ranges
        assert lobby.peer_lookup("L10.01") == level10.guid.hex
        assert level10.peer_lookup("lobby") == lobby.guid.hex

    def test_own_places_resolve_to_self(self, two_ranges):
        sci, lobby, level10 = two_ranges
        assert level10.peer_lookup("L10.01") == level10.guid.hex


class TestForwarding:
    def test_where_clause_forwarded(self, two_ranges):
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app", host="cs-lobby",
                                     app_class=RecordingApp)
        sci.run(5)
        assert app.range_name == "lobby"
        query = (QueryBuilder("visitor").profiles_of_type("printer")
                 .where("room:L10.03").build())
        app.submit_query(query)
        sci.run(10)
        assert lobby.queries_forwarded == 1
        assert app.query_acks[query.query_id]["status"] == "forwarded"
        result = app.results[-1]
        assert [p["name"] for p in result["profiles"]] == ["P1"]

    def test_when_clause_forwarded(self, two_ranges):
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app2", host="cs-lobby")
        sci.run(5)
        query = (QueryBuilder("bob").profiles_of_type("printer")
                 .when("enters(bob, L10.01)").build())
        app.submit_query(query)
        sci.run(5)
        assert lobby.queries_forwarded == 1
        assert len(level10.parked_queries()) == 1

    def test_local_query_not_forwarded(self, two_ranges):
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app3", host="cs-level10",
                                     app_class=RecordingApp)
        sci.run(5)
        query = (QueryBuilder("x").profiles_of_type("printer")
                 .where("room:L10.03").build())
        app.submit_query(query)
        sci.run(10)
        assert level10.queries_forwarded == 0
        assert app.results[-1]["profiles"]

    def test_forwarded_results_reach_original_caa(self, two_ranges):
        """Section 5: results and events flow straight to the CAA even when
        another range's CS executed the query."""
        sci, lobby, level10 = two_ranges
        app = sci.create_application("app4", host="cs-lobby",
                                     app_class=RecordingApp)
        sci.run(5)
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob")
                 .where("within(room:L10)").build())
        app.submit_query(query)
        sci.run(10)
        # now bob appears and walks within level10
        sci.add_person("bob", room="corridor")
        sci.walk("bob", "L10.01")
        sci.run(30)
        values = [e.value for e in app.events_of_type("location")]
        assert "L10.01" in values


class TestForwardedQueryAnswers:
    """A forwarded query names its subscriber: the peer acks nothing (the
    forwarding server did) and tells the subscriber of a refusal."""

    @pytest.fixture
    def rig(self):
        sci = SCI(config=SCIConfig(seed=9, latency_model=FixedLatency(1.0)))
        lobby = sci.create_range("lobby", places=["lobby", "L1"])
        level10 = sci.create_range("level10", places=["L10"])
        sci.add_printers("level10", {"P1": "L10.03"})
        app = sci.create_application("app", host="cs-lobby",
                                     app_class=RecordingApp)
        sci.run(10)
        assert app.range_name == "lobby"
        return sci, lobby, level10, app

    def test_a_forwarded_query_leaves_nothing_unhandled(self, rig):
        sci, lobby, level10, app = rig
        query = (QueryBuilder("visitor").profiles_of_type("printer")
                 .where("room:L10.03").build())
        app.submit_query(query)
        sci.run(10)
        assert lobby.queries_forwarded == 1
        assert [p["name"] for p in app.results[-1]["profiles"]] == ["P1"]
        assert sci.network.obs.metrics.get(
            "net.messages.unhandled").total() == 0
        assert sci.network.stats.by_kind["query-ack"] == 1

    def test_a_query_expiring_between_the_servers_fails_at_the_app(
            self, rig):
        sci, lobby, level10, app = rig
        # one unit to the lobby's server, one more to level10's: the
        # deadline falls between the two arrivals
        query = (QueryBuilder("visitor").profiles_of_type("printer")
                 .where("room:L10.03").when(f"now until({sci.now + 1.5})")
                 .build())
        app.submit_query(query)
        sci.run(10)
        assert app.query_acks[query.query_id]["status"] == "forwarded"
        assert [entry.payload["event"] for entry in level10.ledger_entries()
                if entry.kind == "query"] == ["expired"]
        assert [(result["query_id"], result["ok"]) for result in app.results
                ] == [(query.query_id, False)]


class TestForwardedStreamResync:
    """A forwarded subscription's stream comes from the peer range's
    mediator, which numbers its own subscriptions: the app keys the stream
    by ``(mediator, sub_id)`` and asks that mediator, not its home range's,
    to resync a hole its retransmissions did not fill."""

    DROP_FOR = 200.0

    def test_a_lost_event_is_resynced_with_the_peer(self):
        sci = SCI(config=SCIConfig(seed=9))
        lobby = sci.create_range("lobby", places=["lobby", "L1"],
                                 stations=["ap-lobby"])
        level10 = sci.create_range("level10", places=["L10"])
        sci.add_door_sensors(
            "level10", rooms=level10.definition.rooms(sci.building) + ["lobby"])
        sci.add_person("bob", room="corridor")
        sci.run(5)
        app = sci.create_application("app", host="cs-lobby",
                                     app_class=RecordingApp)
        sci.run(5)
        app.submit_query(sci.query("app").subscribe(
            "location", "topological", subject="bob")
            .where("within(room:L10)").build())
        sci.run(10)
        assert app.query_acks["app:1"]["status"] == "forwarded"
        # the peer's event carrying the app's seq 2, and every
        # retransmission of it, is lost for DROP_FOR units
        scheduler, peer = sci.network.scheduler, level10.mediator.guid
        drop_until = sci.now + self.DROP_FOR
        schedule_delivery = scheduler.schedule_delivery

        def lossy(source_rank, target_rank, delay, fn, message, recipient):
            if not (message.kind == "event" and message.sender == peer
                    and recipient == app.guid and sci.now < drop_until
                    and any(seq == 2 for _, seq in message.payload["subs"])):
                schedule_delivery(source_rank, target_rank, delay, fn,
                                  message, recipient)

        scheduler.schedule_delivery = lossy
        rooms = ["L10.01", "corridor", "L10.02", "corridor"]
        while sci.now < drop_until:
            for room in rooms:
                sci.walk("bob", room)
                sci.run(40)
        assert level10.mediator.resyncs_served >= 1
        assert lobby.mediator.resyncs_served == 0
        later = rooms * 2
        for room in later:
            sci.walk("bob", room)
            sci.run(40)
        assert [event.value for event in app.events[-len(later):]] == later


class TestGrouping:
    def test_third_range_joins_group(self, two_ranges):
        sci, lobby, level10 = two_ranges
        level9 = sci.create_range("level9", places=["L1"])
        sci.run(5)
        assert sci.scinet.size() == 3
        assert lobby.peer_lookup is not None
