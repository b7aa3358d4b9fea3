"""Rows generated from the wire table: a bad request is answered or
counted, never raised, and changes nothing; a bad reply is a lost reply.

For every request verb in :data:`repro.net.wire.REQUESTS` and every field
it declares, a well-formed payload (:data:`VALID`) is sent with that field
given a value of the wrong kind, and with each required field missing; a
payload that is not an object is sent once per verb. Each must reach its
target without ending the run, be counted once in
``net.messages.malformed{verb}``, be answered with the verb's reply and
failure flag when it has one (unanswered otherwise), and leave the
target's state as it was. For every reply verb in
:data:`repro.net.wire.REPLIES` the same wrong values and missing fields
answer a pending request: each is counted once, never reaches the
request's callback, and the request times out; a refusal ``{flag: False,
"error": ...}`` reaches it. The protocol is closed: the table's verbs are
the ones :mod:`repro.analysis.verbs` finds sent or handled in ``src/``.
"""

import math
import pathlib

import pytest

import repro
from repro.analysis.source import load_sources
from repro.analysis.verbs import build_model
from repro.core.ids import GuidFactory
from repro.entities.profile import Profile
from repro.net.rpc import RequestManager
from repro.net.transport import FixedLatency, FunctionProcess, Network
from repro.overlay.hierarchy import HierarchyNetwork
from repro.net.wire import REPLIES, REQUESTS, VERBS
from tests.integration.test_malformed_payloads import (  # noqa: F401
    FIX, TARGETS, _query_wire, _state, deployment)

SRC = pathlib.Path(repro.__file__).resolve().parent

#: a well-formed payload per request verb; ``{probe}``, ``{query}`` and
#: ``{profile}`` are filled in per run. Sent whole, several would change state: only their
#: broken copies are sent.
VALID = {
    "cancel-query": {"query_id": "q-none"},
    "component-up": {"kind": "ce"},
    "deregister": {"entity": "{probe}"},
    "deregistered": {"reason": "lease-expired"},
    "event": {"subs": [[99, 1]], "event": FIX},
    "event-ack": {"acks": [[99, 1]]},
    "h-route": {"target": "leaf-1", "kind": "ping", "body": {}, "hops": 0},
    "heartbeat": {"entities": []},
    "o-bcast": {"bcast_id": "probe:9:ping", "kind": "ping", "body": {},
                "hops": 0, "until": "{probe}"},
    "o-delivery": {"kind": "ping", "body": {}, "hops": 0},
    "o-hb": {},
    "o-route": {"key": "{probe}", "kind": "ping", "body": {}, "hops": 0,
                "origin": "{probe}"},
    "profile-request": {"entity": "{probe}", "name": "P1"},
    "profile-update": {"entity": "{probe}", "attributes": {}},
    "publish": {"event": FIX},
    "query": {"query": "{query}", "subscriber": "{probe}"},
    "query-result": {"query_id": "q-none", "ok": True, "error": "",
                     "mode": "advertisement", "profiles": [{}],
                     "candidates": [{}], "selected": {}},
    "range-offer": {"range": "r", "registrar": "{probe}"},
    "register": {"profile": "{profile}", "kind": "ce",
                 "advertisements": []},
    "resync": {"sub_id": 99},
    "service-invoke": {"operation": "print", "args": {}},
    "subscribe": {"subscriber": "{probe}", "filter": {"op": "all"},
                  "one_time": False, "owner": "probe", "replay": False},
    "unsubscribe": {"sub_id": 99},
    "unsubscribe-owner": {"owner": "probe"},
}

#: the component each verb is sent to (``TARGETS`` keys, plus two here)
TARGET_OF = {
    "cancel-query": "cs", "component-up": "range-service",
    "deregister": "registrar", "deregistered": "app", "event": "app",
    "event-ack": "mediator", "h-route": "tree", "heartbeat": "registrar",
    "o-bcast": "overlay", "o-delivery": "overlay", "o-hb": "overlay",
    "o-route": "overlay", "profile-request": "profiles",
    "profile-update": "profiles", "publish": "mediator", "query": "cs",
    "query-result": "app", "range-offer": "app", "register": "registrar",
    "resync": "mediator", "service-invoke": "printer",
    "subscribe": "mediator", "unsubscribe": "mediator",
    "unsubscribe-owner": "mediator",
}

_GUIDS = GuidFactory(seed=11)

#: a well-formed answer per reply verb, its flag not ``False``
VALID_REPLIES = {
    "profile-response": {"found": True, "advertisements": [],
                         "profile": Profile(_GUIDS.mint(), "P1").to_wire()},
    "profile-update-ack": {"ok": True},
    "publish-ack": {"delivered": 0},
    "query-ack": {"ok": True, "query_id": "q-1", "status": "executed",
                  "error": ""},
    "register-ack": {"ok": True, "range": "r", "lease": 30.0,
                     "context_server": _GUIDS.mint().hex,
                     "event_mediator": _GUIDS.mint().hex},
    "resync-ack": {"ok": True, "sub_id": 1, "seq": 0},
    "service-result": {"ok": True, "result": {}, "error": ""},
    "subscribe-ack": {"sub_id": 1},
    "unsubscribe-ack": {"removed": True},
    "unsubscribe-owner-ack": {"removed": 0},
}

#: a canonical GUID text, its letters included
HEX = "0123456789abcdef" * 2

#: values of the wrong kind, by the name of the kind they break. ``int(text,
#: 16)`` reads every ``guid`` text after the first two as some GUID; only
#: the canonical rendering names one.
WRONG = {
    "str": [5], "int": ["7", True, 1.5], "bool": [1], "[str]": ["x", [5]],
    "dict": [[1]], "[dict]": [{}, [5], [[1]]],
    "guid": ["zz", 5, " 0X1_f ", "0x" + HEX[2:], HEX.upper(), f" {HEX}",
             f"{HEX}\n", f"{HEX[:16]}_{HEX[16:]}", HEX[1:], "1f"],
    "lease": [0, -30.0, "30", True, math.inf, math.nan],
    "int >= 0": [-1, True, 2.5, None],
    "[[int, int]]": [5, [[1]], [[1, 0]], [[True, 1]], [(1, 1)]],
    "ContextEvent.from_wire": [5, {"type": "x"}],
    "filter_from_spec": [5, {"op": "bogus"}],
    "Query.from_wire": [5, {}],
    "Profile.from_wire": [5, {"name": "x"}],
    "[Advertisement.from_wire]": ["x", [5]],
}


def _rows(table=REQUESTS, valid=VALID):
    rows = []
    for verb, row in sorted(table.items()):
        for name, kind, required in row.fields:
            for index, value in enumerate(WRONG.get(kind.name, ())):
                rows.append(pytest.param(
                    verb, {**valid[verb], name: value},
                    id=f"{verb}-{name}-{kind.name}-{index}"))
            if required:
                payload = dict(valid[verb])
                del payload[name]
                rows.append(pytest.param(verb, payload,
                                         id=f"{verb}-{name}-missing"))
    return rows


def test_every_request_verb_has_a_valid_payload_and_a_target():
    assert set(VALID) == set(TARGET_OF) == set(REQUESTS)
    # every kind the table uses but ``any`` has wrong values to send
    used = {kind.name for row in VERBS.values()
            for _, kind, _ in row.fields}
    assert used - {"any"} <= set(WRONG)


def test_every_reply_named_by_a_request_has_a_row_and_the_reverse():
    named = {row.reply for row in REQUESTS.values() if row.reply}
    assert set(REPLIES) == named == set(VALID_REPLIES)
    for verb, row in REPLIES.items():
        assert row.fields and row.flag, verb
        assert row.reply is None and not row.external
        row.parse(VALID_REPLIES[verb])  # raises on a broken row


def test_the_wire_table_is_the_protocol():
    sources, errors = load_sources([str(SRC)])
    assert errors == []
    assert set(VERBS) == set(build_model(sources).verbs())


@pytest.fixture
def rig(deployment):  # noqa: F811
    sci, probe, replies = deployment
    tree = HierarchyNetwork(sci.network, leaf_count=2)
    targets = {**{name: make(sci) for name, make in TARGETS.items()},
               "range-service": sci.range("r").range_services["lab-pc"],
               "tree": tree.root}
    profile = sci.printers["P1"].profile.to_wire()
    fills = {"{probe}": probe.guid.hex, "{query}": _query_wire(sci),
             "{profile}": {**profile, "name": "intruder",
                           "entity_id": probe.guid.hex}}
    return sci, probe, replies, tree, targets, fills


def _filled(payload, fills):
    return {key: fills.get(value, value) if isinstance(value, str) else value
            for key, value in payload.items()}


def test_each_valid_payload_matches_its_row(rig):
    fills = rig[-1]
    for verb, row in REQUESTS.items():
        row.parse(_filled(VALID[verb], fills))  # raises on a broken row


def _send_and_check(rig, verb, payload):
    sci, probe, replies, tree, targets, fills = rig
    if isinstance(payload, dict):
        payload = _filled(payload, fills)
    before = (_state(sci), tree.load_by_node())
    start = sci.network.scheduler.now
    probe.send(targets[TARGET_OF[verb]].guid, verb, payload)
    sci.run(5)
    assert sci.network.scheduler.now >= start + 5
    assert (_state(sci), tree.load_by_node()) == before
    malformed = sci.network.obs.metrics.get("net.messages.malformed")
    assert malformed.by_label() == {verb: 1}
    return replies


@pytest.mark.parametrize("verb, payload", _rows())
def test_a_bad_field_is_answered_or_counted(rig, verb, payload):
    replies = _send_and_check(rig, verb, payload)
    row = REQUESTS[verb]
    if row.reply is None:
        assert replies == []
    else:
        flag = REPLIES[row.reply].flag
        assert [(reply.kind, reply.fields[flag]) for reply in replies] \
            == [(row.reply, False)]
        assert replies[0].payload["error"]


@pytest.mark.parametrize("verb", sorted(REQUESTS))
def test_a_payload_that_is_not_an_object_is_counted(rig, verb):
    assert _send_and_check(rig, verb, [1]) == []


def test_a_cancel_query_with_a_list_id_leaves_the_scheduled_query(rig):
    """It used to raise ``TypeError`` out of the scheduler (an unhashable
    key) whenever the Context Server held a scheduled query."""
    sci, replies = rig[0], rig[2]
    app, server = sci.applications["app"], sci.range("r")
    query = (sci.query("app").profiles_of_type("device")
             .when(f"after({sci.now + 100})").build())
    app.submit_query(query)
    sci.run(5)
    assert app.query_acks[query.query_id]["status"] == "scheduled"
    _send_and_check(rig, "cancel-query", {"query_id": [1]})
    assert replies == []
    assert query.query_id in server._waiting
    sci.run(200)  # the scheduled query still executes
    assert server.explain(query.query_id)["status"] == "executed"


#: the request each reply verb answers
ANSWERS = {row.reply: verb for verb, row in REQUESTS.items() if row.reply}


@pytest.fixture
def pair():
    """``ask(reply_verb, payload)`` sends the request ``reply_verb`` answers
    to an address nobody holds, and a stub answers it with ``payload``;
    ``outcomes`` gets each reply that reaches the callback and each
    timeout."""
    network = Network(latency_model=FixedLatency(1.0), seed=5)
    network.add_host("a")
    network.add_host("b")
    guids = GuidFactory(seed=13)
    requester = FunctionProcess(guids.mint(), "a", network,
                                lambda message: requests.dispatch_reply(
                                    message))
    requests = RequestManager(requester)
    answerer = FunctionProcess(guids.mint(), "b", network, lambda m: None)
    outcomes = []

    def ask(reply_verb, payload):
        pending = requests.request(
            guids.mint(), ANSWERS[reply_verb], {},
            on_reply=outcomes.append,
            on_timeout=lambda: outcomes.append("timeout"),
            timeout=10.0, retries=1)
        answerer.reply(pending.message, reply_verb, payload)
    return network, ask, outcomes


def _malformed(network):
    return network.obs.metrics.get("net.messages.malformed").by_label()


@pytest.mark.parametrize("verb, payload",
                         _rows(REPLIES, VALID_REPLIES)
                         + [pytest.param(verb, [1], id=f"{verb}-not-object")
                            for verb in sorted(REPLIES)])
def test_a_reply_that_fails_its_row_is_a_lost_reply(pair, verb, payload):
    network, ask, outcomes = pair
    ask(verb, payload)
    network.scheduler.run_for(5)
    assert outcomes == []
    assert _malformed(network) == {verb: 1}
    network.scheduler.run_for(40)  # 10, then 20 with up to 25 % jitter
    assert outcomes == ["timeout"]


@pytest.mark.parametrize("verb", sorted(REPLIES))
def test_a_refusal_reaches_the_callback(pair, verb):
    network, ask, outcomes = pair
    flag = REPLIES[verb].flag
    ask(verb, {flag: False, "error": "no"})
    network.scheduler.run_for(5)
    assert [reply.fields for reply in outcomes] == [
        {flag: False, "error": "no"}]
    assert _malformed(network) == {}


def test_a_refusal_that_carries_a_field_checks_its_kind(pair):
    network, ask, outcomes = pair
    ask("query-ack", {"ok": False, "query_id": "q-1", "status": 5})
    network.scheduler.run_for(5)
    assert outcomes == []
    assert _malformed(network) == {"query-ack": 1}
    ask("query-ack", {"ok": False, "query_id": "q-1", "status": "expired"})
    network.scheduler.run_for(5)
    assert [reply.fields for reply in outcomes] == [
        {"ok": False, "query_id": "q-1", "status": "expired"}]


@pytest.mark.parametrize("verb", sorted(REPLIES))
def test_a_valid_answer_reaches_the_callback(pair, verb):
    network, ask, outcomes = pair
    ask(verb, VALID_REPLIES[verb])
    network.scheduler.run_for(5)
    assert [reply.kind for reply in outcomes] == [verb]
    assert set(outcomes[0].fields) == set(VALID_REPLIES[verb])
    assert _malformed(network) == {}
