"""CE/CAA base behaviour: registration handshake, params, publishing."""

import pytest

from repro.core.errors import RegistrationError
from repro.core.types import TypeSpec
from repro.entities.entity import (REGISTER_RETRIES, ContextAwareApplication,
                                   ContextEntity)
from repro.entities.profile import EntityClass, Profile
from repro.net import rpc
from repro.net.transport import FunctionProcess
from repro.query.model import QueryBuilder


def make_ce(guids, network, host="host-b", **profile_kwargs):
    profile = Profile(entity_id=guids.mint(), name="test-ce",
                      outputs=[TypeSpec("temperature", "celsius")],
                      **profile_kwargs)
    return ContextEntity(profile, host, network)


class TestRegistrationHandshake:
    def test_figure5_sequence(self, network, guids, deployed_range):
        server, _ = deployed_range
        ce = make_ce(guids, network)
        assert not ce.registered
        ce.start()
        network.scheduler.run_for(10)
        assert ce.registered
        assert ce.range_name == "livingstone"
        assert ce.context_server == server.guid
        assert ce.event_mediator == server.mediator.guid
        assert server.registrar.registered(ce.guid.hex)

    def test_no_range_service_no_registration(self, network, guids):
        ce = make_ce(guids, network)
        ce.start()
        network.scheduler.run_for(10)
        assert not ce.registered

    def test_stop_deregisters(self, network, guids, deployed_range):
        server, _ = deployed_range
        ce = make_ce(guids, network)
        ce.start()
        network.scheduler.run_for(10)
        population = server.registrar.population()
        ce.stop()
        network.scheduler.run_for(10)
        assert server.registrar.population() == population - 1

    def test_crash_leaves_stale_registration(self, network, guids, deployed_range):
        server, _ = deployed_range
        ce = make_ce(guids, network)
        ce.start()
        network.scheduler.run_for(10)
        ce.crash()
        network.scheduler.run_for(5)
        assert server.registrar.registered(ce.guid.hex)  # until lease expiry

    def test_lease_expiry_evicts_crashed(self, network, guids, deployed_range):
        server, _ = deployed_range
        ce = make_ce(guids, network)
        ce.start()
        network.scheduler.run_for(10)
        ce.crash()
        network.scheduler.run_for(60)  # lease 30 + lease/2
        assert not server.registrar.registered(ce.guid.hex)

    def test_heartbeats_keep_lease_alive(self, network, guids, deployed_range):
        server, _ = deployed_range
        ce = make_ce(guids, network)
        ce.start()
        network.scheduler.run_for(120)  # several lease periods
        assert server.registrar.registered(ce.guid.hex)

    def test_attach_to_range_skips_handshake(self, network, guids, deployed_range):
        server, _ = deployed_range
        ce = make_ce(guids, network, host="host-a")
        ce.attach_to_range(server.registrar.guid, server.guid,
                           server.mediator.guid, "livingstone")
        assert ce.registered
        assert ce.event_mediator == server.mediator.guid


#: register-ack payloads a stub registrar answers with; each must leave the
#: component unregistered instead of raising out of the scheduler. A refusal
#: takes effect at once; every other row fails its wire row, so it is a lost
#: reply and the register request runs out its budget first
BAD_ACKS = {
    "refused": {"ok": False, "error": "no"},
    "bare-ok": {"ok": True},
    "no-lease": {"ok": True, "context_server": "{cs}",
                 "event_mediator": "{em}", "range": "stub"},
    "zero-lease": {"ok": True, "context_server": "{cs}",
                   "event_mediator": "{em}", "lease": 0},
    "negative-lease": {"ok": True, "context_server": "{cs}",
                       "event_mediator": "{em}", "lease": -30.0},
    "string-lease": {"ok": True, "context_server": "{cs}",
                     "event_mediator": "{em}", "lease": "30"},
    "bool-lease": {"ok": True, "context_server": "{cs}",
                   "event_mediator": "{em}", "lease": True},
    "bad-address": {"ok": True, "context_server": "zz",
                    "event_mediator": "{em}", "lease": 30.0},
    "null-address": {"ok": True, "context_server": "{cs}",
                     "event_mediator": None, "lease": 30.0},
}


#: the register request's waits: the first, then each retransmission's,
#: stretched by the most jitter it can draw
REGISTER_BUDGET = rpc.DEFAULT_TIMEOUT * sum(
    (rpc.BACKOFF_FACTOR ** attempt) * (1 + rpc.JITTER * (attempt > 0))
    for attempt in range(REGISTER_RETRIES + 1))


@pytest.mark.parametrize("ack", BAD_ACKS.values(), ids=BAD_ACKS.keys())
def test_a_malformed_register_ack_leaves_the_component_unregistered(
        network, guids, ack):
    refused = ack["ok"] is False
    addresses = {"{cs}": guids.mint().hex, "{em}": guids.mint().hex}
    payload = {key: addresses.get(value, value) if isinstance(value, str)
               else value for key, value in ack.items()}
    registers = []

    def answer(message):
        if message.kind == "register":
            registers.append(message)
            registrar.reply(message, "register-ack", payload)

    registrar = FunctionProcess(guids.mint(), "host-a", network, answer)
    range_service = FunctionProcess(guids.mint(), "host-b", network,
                                    lambda message: None)
    ce = make_ce(guids, network)
    ce.start()
    range_service.send(ce.guid, "range-offer",
                       {"registrar": registrar.guid.hex, "range": "stub"})
    network.scheduler.run_for(10 if refused else REGISTER_BUDGET + 10)
    malformed = network.obs.metrics.get("net.messages.malformed").by_label()
    assert malformed == ({} if refused else {"register-ack": 1})
    assert len(registers) == 1
    assert not ce.registered
    assert ce.registrar is None
    assert ce.context_server is None and ce.event_mediator is None


class StubRangeService(FunctionProcess):
    """Sends offers and holds the lease group a registered component joins."""

    def __init__(self, guid, host_id, network):
        super().__init__(guid, host_id, network, lambda message: None)
        self.members = []

    def join(self, component, lease):
        self.members.append(component)

    def leave(self, component):
        self.members.remove(component)


def test_a_second_registration_that_times_out_keeps_the_first(network, guids):
    """Two offers arrive before either ack; the first registrar acks and the
    second never answers. Its timeout must not clear the live registrar:
    ``stop()`` still says goodbye to the range the component is in."""
    heard = []

    def answer(message):
        heard.append(message.kind)
        if message.kind == "register":
            first.reply(message, "register-ack", {
                "ok": True, "range": "first", "lease": 30.0,
                "context_server": guids.mint().hex,
                "event_mediator": guids.mint().hex})

    first = FunctionProcess(guids.mint(), "host-a", network, answer)
    silent = FunctionProcess(guids.mint(), "host-a", network,
                             lambda message: None)
    range_service = StubRangeService(guids.mint(), "host-b", network)
    ce = make_ce(guids, network)
    for registrar, name in ((first, "first"), (silent, "second")):
        range_service.send(ce.guid, "range-offer",
                           {"registrar": registrar.guid.hex, "range": name})
    network.scheduler.run_for(REGISTER_BUDGET + 10)
    assert ce.registered and ce.range_name == "first"
    assert ce.registrar == first.guid
    assert range_service.members == [ce]
    ce.stop()
    network.scheduler.run_for(5)
    assert heard == ["register", "deregister"]


class ReannouncingCE(ContextEntity):
    """A component that announces itself again when the range lets it go."""

    def __init__(self, profile, host_id, network):
        super().__init__(profile, host_id, network)
        self.reasons = []

    def on_deregistered(self, reason):
        self.reasons.append(reason)
        self.start()


def make_reannouncing(guids, network, name):
    return ReannouncingCE(Profile(entity_id=guids.mint(), name=name),
                          "host-b", network)


class TestEviction:
    def test_partitioned_machine_is_evicted_and_told_so_after_healing(
            self, network, guids, deployed_range):
        server, _ = deployed_range
        registrar = server.registrar
        ces = [make_reannouncing(guids, network, f"ce-{i}") for i in range(3)]
        for ce in ces:
            ce.start()
        network.scheduler.run_for(10)
        network.set_partitions([["host-a"], ["host-b"]])
        network.scheduler.run_for(45)  # lease 30 + lease/2: the notices are lost
        assert not any(registrar.registered(ce.guid.hex) for ce in ces)
        assert all(ce.registered and not ce.reasons for ce in ces)
        network.heal_partitions()
        # the machine's next heartbeat still lists them; the Registrar
        # answers each with not-registered and they announce themselves again
        network.scheduler.run_for(20)
        assert all(ce.reasons == ["not-registered"] for ce in ces)
        assert all(ce.registered and registrar.registered(ce.guid.hex)
                   for ce in ces)
        network.scheduler.run_for(120)  # and the new leases are kept alive
        assert all(registrar.registered(ce.guid.hex) for ce in ces)

    def test_duplicate_notice_does_not_break_a_reregistration(
            self, network, guids, deployed_range):
        """One eviction can produce two notices (lease-expired, then the
        not-registered answer to a renewal that was in flight). The second
        used to reach the component mid-handshake, clear its registrar and
        leave it registered with nobody renewing it."""
        server, _ = deployed_range
        registrar = server.registrar
        ce = make_reannouncing(guids, network, "ce")
        ce.start()
        network.scheduler.run_for(10)
        registrar.remove(ce.guid.hex, "lease-expired")  # the first notice
        # the duplicate lands after the offer (t+3) and before the ack (t+5)
        network.scheduler.schedule(3.0, registrar.send, ce.guid, "deregistered",
                                   {"reason": "not-registered"})
        network.scheduler.run_for(10)
        assert ce.reasons == ["lease-expired"]
        assert ce.registered and ce.registrar == registrar.guid
        network.scheduler.run_for(120)  # several leases: it is being renewed
        assert registrar.registered(ce.guid.hex)
        assert registrar.evictions == 0

    def test_notice_from_a_stranger_is_ignored(self, network, guids,
                                               deployed_range):
        server, _ = deployed_range
        ce = make_reannouncing(guids, network, "ce")
        ce.start()
        network.scheduler.run_for(10)
        server.mediator.send(ce.guid, "deregistered", {"reason": "spoofed"})
        network.scheduler.run_for(5)
        assert ce.registered and not ce.reasons


class TestParams:
    def test_set_known_param(self, network, guids):
        ce = make_ce(guids, network, params={"subject": "who"})
        ce.set_param("subject", "bob")
        assert ce.get_param("subject") == "bob"

    def test_unknown_param_rejected(self, network, guids):
        ce = make_ce(guids, network)
        with pytest.raises(RegistrationError):
            ce.set_param("nope", 1)


class TestPublishing:
    def test_publish_before_registration_dropped(self, network, guids):
        ce = make_ce(guids, network)
        assert ce.publish(TypeSpec("temperature", "celsius"), 20.0) is None
        assert ce.events_published == 0

    def test_publish_reaches_mediator(self, network, guids, deployed_range):
        server, _ = deployed_range
        ce = make_ce(guids, network)
        ce.start()
        network.scheduler.run_for(10)
        ce.publish(TypeSpec("temperature", "celsius", "L10.01"), 21.5)
        network.scheduler.run_for(5)
        retained = server.mediator.retained_event("temperature", "celsius",
                                                  "L10.01")
        assert retained is not None and retained.value == 21.5


class TestCAA:
    def test_submit_requires_registration(self, network, guids):
        app = ContextAwareApplication(
            Profile(guids.mint(), "app", EntityClass.SOFTWARE),
            "host-a", network)
        query = QueryBuilder("bob").profiles_of_type("device").build()
        with pytest.raises(RegistrationError):
            app.submit_query(query)

    def test_offline_queue_flushes_on_registration(self, network, guids,
                                                   deployed_range):
        server, _ = deployed_range
        app = ContextAwareApplication(
            Profile(guids.mint(), "app", EntityClass.SOFTWARE),
            "host-b", network)
        query = QueryBuilder("bob").profiles_of_type("device").build()
        app.queue_query(query)       # offline
        app.start()
        network.scheduler.run_for(15)
        assert app.registered
        assert query.query_id in app.query_acks

    def test_a_refused_query_is_filed_under_its_own_id(self, network, guids):
        """A refusal carries no ``query_id`` (``Process.refuse`` sends
        ``{"ok": False, "error"}``): the ack is filed, reported and its span
        ended under the id of the query it answers."""
        failures = []

        class App(ContextAwareApplication):
            def on_query_failed(self, query_id, error):
                failures.append((query_id, error))

        def refuse(message):
            if message.kind == "query":
                server.reply(message, "query-ack",
                             {"ok": False, "error": "no"})

        server = FunctionProcess(guids.mint(), "host-a", network, refuse)
        app = App(Profile(guids.mint(), "app", EntityClass.SOFTWARE),
                  "host-b", network)
        app.attach_to_range(guids.mint(), server.guid, guids.mint(), "stub")
        query = QueryBuilder("bob").profiles_of_type("device").build()
        app.submit_query(query)
        network.scheduler.run_for(5)
        assert app.query_acks == {query.query_id: {"ok": False, "error": "no"}}
        assert failures == [(query.query_id, "no")]
        assert app._query_spans == {}

    def test_service_invoke_unknown_operation_refused(self, network, guids,
                                                      deployed_range):
        ce = make_ce(guids, network)
        ce.start()
        network.scheduler.run_for(10)
        replies = []
        from repro.net.transport import FunctionProcess
        asker = FunctionProcess(guids.mint(), "host-a", network, replies.append)
        asker.send(ce.guid, "service-invoke", {"operation": "explode"})
        network.scheduler.run_for(5)
        assert replies[0].payload["ok"] is False
