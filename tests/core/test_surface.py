"""Guards on what left the public surface because nothing used it.

``SCIConfig`` keeps only the options a caller sets; the mediator has no
event bridges; the Location Service answers no remote query verbs, and the
Range Service no ``probe``. Each of those was reached only by tests. There
is one counting path: no stats staging buffer, no scheduler quiesce hook,
and none of the observability options no caller set. The open-loop
workload generator and its ``wl-start`` verb are gone, every ``publish``
is answered, and recording to the context ledger cannot be switched off:
a Context Utility built without a chain appends to a private one. A
subscription is a filter and nothing else: the continuous-query plans
(window, join, select), their compiler and the ``query`` subscribe field
are gone, and the mediator's engine is a filter table, with no dispatch index module
beside it. The mediator has
one delivery mode, sequenced and acknowledged: no ``reliable`` switch and
none of the delivery knobs only tests set.
"""

import dataclasses
import importlib
import inspect

import pytest

import repro.apps
import repro.events
import repro.query.opgraph
from repro import SCI, SCIConfig
from repro.core.types import TypeSpec
from repro.entities.profile import Profile
from repro.events.event import ContextEvent
from repro.events.filters import TypeFilter
from repro.events.mediator import EventMediator
from repro.events.stream import StreamReassembler
from repro.events.subscription import Subscription
from repro.ledger.ledger import LEDGER_SCHEMA, ContextLedger
from repro.location.service import LocationService
from repro.net import stats as stats_module
from repro.net.sim import Scheduler
from repro.net.transport import FunctionProcess
from repro.obs.hub import Observability
from repro.obs.tracing import Tracer
from repro.query.opgraph.engine import OperatorGraph
from repro.server.context_server import ContextServer
from repro.server.profile_manager import ProfileManager
from repro.server.range_service import RangeService
from repro.server.registrar import RegistrationRecord, Registrar


def parameters(target):
    return list(inspect.signature(target).parameters)


def test_sciconfig_fields_are_pinned():
    assert [field.name for field in dataclasses.fields(SCIConfig)] == [
        "seed", "lease_duration", "latency_model", "max_repairs_per_config"]


def test_the_mediator_has_one_delivery_mode(network, guids):
    assert parameters(EventMediator) == [
        "guid", "host_id", "network", "range_name", "ledger"]
    mediator = EventMediator(guids.mint(), "host-a", network, "r")
    for knob in ("reliable", "ack_timeout", "delivery_retries",
                 "retained_cap"):
        assert not hasattr(mediator, knob), knob


def test_a_reassembler_always_resyncs_after_the_same_wait():
    assert parameters(StreamReassembler) == [
        "scheduler", "deliver", "request_resync", "metrics"]
    request_resync = inspect.signature(StreamReassembler).parameters[
        "request_resync"]
    assert request_resync.default is inspect.Parameter.empty


def test_context_server_always_ledgers():
    assert "ledger" not in parameters(ContextServer)


def test_apps_ship_no_workload_generator():
    for name in ("OpenLoopWorkload", "ProviderFeed", "WorkloadConfig",
                 "ZipfSampler"):
        assert not hasattr(repro.apps, name), name
    assert not [name for name in repro.apps.__all__
                if "workload" in name.lower()]
    with pytest.raises(ImportError):
        importlib.import_module("repro.apps.workload")


def test_a_publish_asking_for_no_ack_is_answered(network, guids):
    """``"ack": False`` is no longer an option: a malformed publish gets an
    error ack and a good one its delivered count."""
    mediator = EventMediator(guids.mint(), "host-a", network, "r")
    replies = []
    probe = FunctionProcess(guids.mint(), "host-b", network, replies.append)
    good = ContextEvent(TypeSpec("temperature", "raw", "room-0"), 21.5,
                        probe.guid, 0.0)
    probe.send(mediator.guid, "publish", {"event": {"x": 1}, "ack": False})
    probe.send(mediator.guid, "publish",
               {"event": good.to_wire(), "ack": False})
    network.scheduler.run_for(5)
    assert [(reply.kind, reply.payload.get("ok", True))
            for reply in replies] == [("publish-ack", False),
                                      ("publish-ack", True)]
    assert mediator.published == 1


def _record(guids, name):
    return RegistrationRecord(profile=Profile(guids.mint(), name), kind="ce")


def _build_and_touch(kind, network, guids, ledger):
    """One Context Utility built with ``ledger`` (None: none given), made
    to record one fact; returns (its chain, the entry kind expected)."""
    options = {} if ledger is None else {"ledger": ledger}
    if kind == "mediator":
        mediator = EventMediator(guids.mint(), "host-a", network, "r",
                                 **options)
        mediator.add_subscription(guids.mint(), TypeFilter("temperature"))
        return mediator.ledger, "subscribe"
    registrar = Registrar(guids.mint(), "host-a", network, "r",
                          context_server=guids.mint(),
                          event_mediator=guids.mint(),
                          **(options if kind == "registrar" else {}))
    record = registrar.register_record(_record(guids, "ce-0"))
    if kind == "registrar":
        return registrar.ledger, "register"
    profiles = ProfileManager(guids.mint(), "host-a", network, registrar,
                              "r", **options)
    assert profiles.update_attributes(record.entity_hex, {"floor": 10})
    return profiles.ledger, "profile-update"


UTILITIES = ("mediator", "registrar", "profile-manager")


@pytest.mark.parametrize("kind", UTILITIES)
def test_a_utility_built_without_a_ledger_still_records(network, guids,
                                                        kind):
    chain, entry_kind = _build_and_touch(kind, network, guids, None)
    assert isinstance(chain, ContextLedger)
    assert [entry.kind for entry in chain.entries()] == [entry_kind]


@pytest.mark.parametrize("kind", UTILITIES)
def test_a_utility_given_an_empty_ledger_appends_to_that_chain(network, guids,
                                                               kind):
    """An empty chain is falsy (``ContextLedger`` has a length), so
    ``ledger or ContextLedger(...)`` would swap it for a private one."""
    given = ContextLedger("given")
    assert not given
    chain, entry_kind = _build_and_touch(kind, network, guids, given)
    assert chain is given
    assert [entry.kind for entry in given.entries()] == [entry_kind]


def test_mediator_has_no_bridges():
    for name in ("add_bridge", "remove_bridge", "_handle_bridge_add",
                 "_handle_bridge_remove"):
        assert not hasattr(EventMediator, name), name


@pytest.mark.parametrize("verb, payload", [
    ("locate", {"entity": "bob"}),
    ("resolve-where", {"expr": "within(room:L10)"}),
    ("route", {"from": "room:L10.01", "to": "room:L10.02"}),
])
def test_location_service_answers_no_remote_verb(network, guids, building,
                                                 verb, payload):
    service = LocationService(guids.mint(), "host-a", network, building, "r")
    service.update("bob", room="L10.01")
    replies = []
    asker = FunctionProcess(guids.mint(), "host-b", network, replies.append)
    asker.send(service.guid, verb, payload)
    asker.send(service.guid, verb, {})  # a missing field raised, once
    network.scheduler.run_until_idle()
    assert replies == []


def test_one_counting_path():
    """Counts go straight into the registry: no staging buffer, no quiesce
    hook, and no observability option a caller never set."""
    assert parameters(Observability) == ["scheduler"]
    assert parameters(stats_module.MessageStats) == ["registry"]
    assert "enabled" not in parameters(Tracer)
    graph = parameters(OperatorGraph)
    assert "metrics" in graph
    assert not [name for name in graph
                if name.endswith(("_counter", "_gauge"))]
    assert not hasattr(stats_module, "StatsBuffer")
    for name in ("on_quiesce", "bound_network"):
        assert not hasattr(Scheduler(), name), name


def test_range_service_ignores_probe(network, guids):
    rs = RangeService(guids.mint(), "host-a", network, "r",
                      registrar=guids.mint())
    replies = []
    asker = FunctionProcess(guids.mint(), "host-a", network, replies.append)
    asker.send(rs.guid, "probe", {})
    network.scheduler.run_until_idle()
    assert replies == []


def test_opgraph_exports_only_the_filter_table():
    assert repro.query.opgraph.__all__ == ["OperatorGraph"]
    for module in ("repro.query.opgraph.compile", "repro.query.opgraph.specs"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    # the frozen end-to-end tracer wraps these three by dotted path
    for name in ("publish", "attach", "detach"):
        assert callable(getattr(OperatorGraph, name)), name


def test_dispatch_is_the_filter_table_alone():
    """Filter analysis and the buckets live inside the filter table; no
    second index module sits beside it."""
    with pytest.raises(ImportError):
        importlib.import_module("repro.events.dispatch_index")
    for name in ("DispatchIndex", "FilterConstraints", "analyse_filter"):
        assert name not in repro.events.__all__, name
        assert not hasattr(repro.events, name), name


def test_a_subscription_is_a_filter_and_nothing_else():
    assert "query" not in parameters(EventMediator.add_subscription)
    assert "query" not in [field.name
                           for field in dataclasses.fields(Subscription)]


def test_subscribe_entries_carry_no_query_key():
    assert LEDGER_SCHEMA == "sci.ledger/7"
    sci = SCI(config=SCIConfig(seed=5))
    server = sci.create_range("r", places=["L10"])
    entries = [entry for entry in server.ledger_entries()
               if entry.kind == "subscribe"]
    assert entries
    for entry in entries:
        assert sorted(entry.payload) == sorted(
            ["sub_id", "subscriber", "filter", "one_time", "owner"])
