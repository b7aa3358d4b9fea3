"""Context Server: query routing and execution across all four modes."""

import logging

import pytest

from repro import SCI
from repro.core.errors import NoProviderError
from repro.core.types import TypeSpec
from repro.entities.devices import PrinterCE
from repro.entities.entity import ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.ledger.replay import (live_snapshot, projection_snapshot,
                                 snapshot_digest)
from repro.net.transport import FunctionProcess
from repro.query.model import QueryBuilder, WhatClause
from repro.server.deployment import deploy_printers


@pytest.fixture
def with_printers(network, guids, deployed_range):
    server, sensors = deployed_range
    printers = deploy_printers("host-a", network, guids, {
        "P1": "L10.03", "P2": "L10.03", "P4": "open-area"})
    network.scheduler.run_for(10)
    return server, sensors, printers


class TestProfileMode:
    def test_by_entity_type(self, network, with_printers, registered_app):
        server, _, _ = with_printers
        query = QueryBuilder("bob").profiles_of_type("printer").build()
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        result = registered_app.results[-1]
        assert result["ok"] is True
        names = {p["name"] for p in result["profiles"]}
        assert names == {"P1", "P2", "P4"}

    def test_by_name(self, network, with_printers, registered_app):
        query = QueryBuilder("bob").profile_of("P1").build()
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        assert [p["name"] for p in registered_app.results[-1]["profiles"]] == ["P1"]

    def test_where_restricts(self, network, with_printers, registered_app):
        query = (QueryBuilder("bob").profiles_of_type("printer")
                 .where("room:L10.03").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        names = {p["name"] for p in registered_app.results[-1]["profiles"]}
        assert names == {"P1", "P2"}

    def test_no_match_empty_list(self, network, deployed_range, registered_app):
        query = QueryBuilder("bob").profiles_of_type("submarine").build()
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        assert registered_app.results[-1]["profiles"] == []


class TestAdvertisementMode:
    def test_closest_printer_selected(self, network, with_printers,
                                      registered_app):
        server, _, _ = with_printers
        server.location.update("bob", room="L10.02")
        query = (QueryBuilder("bob").advertisement("printer")
                 .which("reachable; available; closest-to(me)").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        result = registered_app.results[-1]
        assert result["ok"] is True
        assert result["selected"]["name"] == "P1"  # print room is closest
        assert result["selected"]["advertisements"][0]["service_name"] == \
            "print-service"

    def test_busy_printer_filtered(self, network, with_printers,
                                   registered_app, guids):
        server, _, printers = with_printers
        server.location.update("bob", room="L10.02")
        # occupy P1 and P2
        from repro.net.transport import FunctionProcess
        caller = FunctionProcess(guids.mint(), "host-a", network,
                                 lambda m: None)
        for name in ("P1", "P2"):
            caller.send(printers[name].guid, "service-invoke",
                        {"operation": "print", "args": {"pages": 50}})
        network.scheduler.run_for(5)
        query = (QueryBuilder("bob").advertisement("printer")
                 .which("reachable; available; no-queue; closest-to(me)")
                 .build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        assert registered_app.results[-1]["selected"]["name"] == "P4"

    def test_all_filtered_reports_failure(self, network, with_printers,
                                          registered_app):
        server, _, printers = with_printers
        for printer in printers.values():
            printer.set_out_of_paper()
        network.scheduler.run_for(5)
        query = (QueryBuilder("bob").advertisement("printer")
                 .which("available").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        result = registered_app.results[-1]
        assert result["ok"] is False
        assert "candidates" in result

    def test_locked_door_excludes_candidate(self, network, guids,
                                            deployed_range, registered_app,
                                            building):
        server, _ = deployed_range
        deploy_printers("host-a", network, guids, {"P3": "L10.05",
                                                   "P4": "open-area"})
        network.scheduler.run_for(10)
        building.topology.door("door:corridor--L10.05").lock({"facilities"})
        server.location.update("john", room="L10.02")
        query = (QueryBuilder("john").advertisement("printer")
                 .which("reachable; closest-to(me)").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        # P3 is nearer but unreachable for john
        assert registered_app.results[-1]["selected"]["name"] == "P4"


    @pytest.mark.parametrize("queue_length", [None, "abc", float("inf"),
                                              [1]],
                             ids=["none", "string", "inf", "list"])
    def test_a_status_with_a_bad_queue_length_counts_as_no_status(
            self, network, with_printers, registered_app, guids, caplog,
            queue_length):
        """The retained status is an event value, not a wire field: one
        whose ``queue_length`` is not a non-negative int is logged and
        ignored (the profile's availability, a queue of 0) instead of
        raising out of every later advertisement query in the range."""
        caplog.set_level(logging.INFO, logger="repro.server.context_server")
        server, _, _ = with_printers
        server.location.update("bob", room="L10.02")
        server.mediator.publish(ContextEvent(
            TypeSpec("printer-status", "record", "P1"),
            {"state": "busy", "queue_length": queue_length}, guids.mint(),
            network.scheduler.now))
        query = (QueryBuilder("bob").advertisement("printer")
                 .which("reachable; available; no-queue; closest-to(me)")
                 .build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)  # used to raise out of the scheduler
        result = registered_app.results[-1]
        assert result["ok"] is True
        assert result["selected"]["name"] == "P1"  # idle, by its profile
        assert "queue_length" in caplog.text


class TestSubscriptionModes:
    def test_subscription_streams_updates(self, network, deployed_range,
                                          registered_app):
        server, sensors = deployed_range
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        assert registered_app.query_acks[query.query_id]["status"] == "executed"
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        sensors["door:corridor--L10.01"].detect("bob", "L10.01", "corridor")
        network.scheduler.run_for(10)
        values = [e.value for e in registered_app.events_of_type("location")]
        assert values == ["L10.01", "corridor"]

    def test_one_time_stops_after_first(self, network, deployed_range,
                                        registered_app):
        server, sensors = deployed_range
        query = (QueryBuilder("ops")
                 .once("location", "topological", subject="bob").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        sensors["door:corridor--L10.01"].detect("bob", "L10.01", "corridor")
        network.scheduler.run_for(10)
        assert len(registered_app.events_of_type("location")) == 1

    def test_unsatisfiable_pattern_fails_cleanly(self, network, deployed_range,
                                                 registered_app):
        query = (QueryBuilder("ops")
                 .subscribe("printer-status", "record").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        ack = registered_app.query_acks[query.query_id]
        assert ack["ok"] is False
        assert "no provider" in ack["error"]

    def test_non_pattern_subscription_rejected(self, network, deployed_range,
                                               registered_app):
        from repro.query.model import Query, QueryMode, WhatClause
        query = Query(owner_id="ops", what=WhatClause.entity_type("printer"),
                      mode=QueryMode.SUBSCRIPTION)
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        assert registered_app.query_acks[query.query_id]["ok"] is False


class TestTemporalRouting:
    def test_scheduled_query_executes_later(self, network, deployed_range,
                                            registered_app):
        server, sensors = deployed_range
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        network.scheduler.run_for(5)
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob")
                 .when("after(20)").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(5)
        assert registered_app.query_acks[query.query_id]["status"] == "scheduled"
        assert registered_app.events_of_type("location") == []
        network.scheduler.run_for(30)
        # retained replay delivers bob's current room once executed
        assert registered_app.events_of_type("location")

    def test_enters_query_parks_and_triggers(self, network, deployed_range,
                                             registered_app):
        server, sensors = deployed_range
        query = (QueryBuilder("bob").profiles_of_type("device")
                 .when("enters(bob, L10.01)").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(5)
        assert registered_app.query_acks[query.query_id]["status"] == "parked"
        assert len(server.parked_queries()) == 1
        sensors["door:corridor--L10.01"].detect("bob", "corridor", "L10.01")
        network.scheduler.run_for(10)
        assert server.parked_queries() == []
        assert registered_app.results  # executed on entry

    def test_wrong_room_does_not_trigger(self, network, deployed_range,
                                         registered_app):
        server, sensors = deployed_range
        query = (QueryBuilder("bob").profiles_of_type("device")
                 .when("enters(bob, L10.01)").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(5)
        sensors["door:corridor--L10.02"].detect("bob", "corridor", "L10.02")
        network.scheduler.run_for(10)
        assert len(server.parked_queries()) == 1

    def test_expired_query_dropped(self, network, deployed_range,
                                   registered_app):
        server, _ = deployed_range
        expiry = network.scheduler.now + 5
        query = (QueryBuilder("bob").profiles_of_type("device")
                 .when(f"enters(bob, L10.01) until({expiry})").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(30)
        assert server.parked_queries() == []
        failures = [r for r in registered_app.results if not r.get("ok", True)]
        assert failures and "expired" in failures[0]["error"]

    def test_trigger_on_expiry_instant_expires(self, network, deployed_range,
                                               registered_app):
        # Regression: WhenClause.expired used a strict now > expires, so an
        # enters event landing exactly at the until() boundary raced the
        # expiry — trigger-first executed, expiry-first dropped. The
        # boundary is now inclusive: at now == expires the fix and the
        # query's own expiry timer both expire it.
        server, _ = deployed_range
        expiry = network.scheduler.now + 5
        query = (QueryBuilder("bob").profiles_of_type("device")
                 .when(f"enters(bob, L10.01) until({expiry})").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(2)
        assert registered_app.query_acks[query.query_id]["status"] == "parked"
        network.scheduler.run_until(expiry)
        # the entry event lands at the exact expiry instant
        server.location.update("bob", room="L10.01")
        assert server.parked_queries() == []
        network.scheduler.run_for(5)
        failures = [r for r in registered_app.results if not r.get("ok", True)]
        assert failures and failures[0]["error"] == "query expired while waiting"
        assert all(not r.get("ok", False) for r in registered_app.results)

    def test_trigger_just_before_expiry_executes(self, network, deployed_range,
                                                 registered_app):
        server, _ = deployed_range
        expiry = network.scheduler.now + 5
        query = (QueryBuilder("bob").profiles_of_type("device")
                 .when(f"enters(bob, L10.01) until({expiry})").build())
        registered_app.submit_query(query)
        network.scheduler.run_for(2)
        network.scheduler.run_until(expiry - 0.5)
        server.location.update("bob", room="L10.01")
        assert server.parked_queries() == []
        network.scheduler.run_for(5)
        assert any(r.get("ok") for r in registered_app.results)

    def test_already_expired_query_refused(self, network, deployed_range,
                                           registered_app):
        query = (QueryBuilder("bob").profiles_of_type("device")
                 .when("now until(0.0001)").build())
        network.scheduler.run_for(1)
        registered_app.submit_query(query)
        network.scheduler.run_for(10)
        ack = registered_app.query_acks[query.query_id]
        assert ack["status"] == "expired"


class TestDepartures:
    def test_departure_cleans_all_state(self, network, guids, deployed_range):
        server, _ = deployed_range
        printer = PrinterCE(guids.mint(), "host-a", network, "P9", "L10.03")
        printer.start()
        network.scheduler.run_for(10)
        assert server.profiles.get(printer.guid.hex)
        printer.stop()
        network.scheduler.run_for(10)
        assert server.profiles.get(printer.guid.hex) is None
        assert server.location.locate("P9") is None


class TestReRegistration:
    """A registered component registering again is a replace, not a gap."""

    def _register(self, network, server, component, outputs):
        profile = Profile(component.guid, "flex", EntityClass.DEVICE,
                          outputs=outputs)
        component.send(server.registrar.guid, "register",
                       {"kind": "ce", "profile": profile.to_wire()})
        network.scheduler.run_for(5)
        return server.registrar.record(component.guid.hex)

    def test_changed_output_follows_without_rebuild(self, network, guids,
                                                    deployed_range):
        server, _ = deployed_range
        component = FunctionProcess(guids.mint(), "host-b", network,
                                    lambda message: None)
        occupancy = TypeSpec("occupancy", "count")
        signal = TypeSpec("network-signal", "dbm")
        first = self._register(network, server, component, [occupancy])
        plan = server.resolver.resolve(occupancy)
        assert plan.nodes[plan.output_key].profile is first.profile
        rebuilds = server.resolver.index_rebuilds

        second = self._register(network, server, component, [signal])
        assert second is not first
        plan = server.resolver.resolve(signal)
        assert plan.nodes[plan.output_key].profile is second.profile
        with pytest.raises(NoProviderError):
            server.resolver.resolve(occupancy)
        assert server.resolver.index_rebuilds == rebuilds
        matching = server.registrar.matching
        assert matching(WhatClause.for_pattern("network-signal")) == [second]
        assert matching(WhatClause.for_pattern("occupancy")) == []
        # the Profile Manager swapped too, and the ledger tells the same story
        assert server.profiles.get(component.guid.hex) is second.profile
        assert (snapshot_digest(projection_snapshot(server.ledger_projection()))
                == snapshot_digest(live_snapshot(server)))


class TestStrayOffer:
    """An offer whose type the ontology does not define is no candidate:
    it fails no query, and is matched once its type is defined."""

    @staticmethod
    def _range_with_stray():
        sci = SCI()
        server = sci.create_range("level10", places=["L10"])
        sci.add_door_sensors("level10")
        stray = ContextEntity(Profile(
            sci.guids.mint(), "stray", EntityClass.DEVICE,
            outputs=[TypeSpec("no-such-type", "raw")]),
            server.host_id, sci.network)
        stray.start()
        return sci, server

    def test_a_stray_offer_fails_no_subscription(self):
        sci, server = self._range_with_stray()
        app = sci.create_application("bob-app", host=server.host_id)
        sci.run(5)
        query = sci.query("bob-app").subscribe(
            "location", "topological", "bob").build()
        app.submit_query(query)
        sci.run(5)
        ack = app.query_acks[query.query_id]
        assert (ack["ok"], ack["status"]) == (True, "executed")

    def test_the_offer_is_a_candidate_once_its_type_is_defined(self):
        sci, server = self._range_with_stray()
        sci.run(5)
        stray = TypeSpec("no-such-type", "raw")
        with pytest.raises(NoProviderError):
            server.resolver.resolve(stray)
        sci.registry.define("no-such-type")
        plan = server.resolver.resolve(stray)
        assert plan.nodes[plan.output_key].profile.name == "stray"
        assert server.resolver.index_rebuilds == 1
