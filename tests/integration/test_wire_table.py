"""Rows generated from the wire table: a bad request is answered or
counted, never raised, and changes nothing.

For every request verb in :data:`repro.net.wire.REQUESTS` and every field
it declares, a well-formed payload (:data:`VALID`) is sent with that field
given a value of the wrong kind, and with each required field missing; a
payload that is not an object is sent once per verb. Each must reach its
target without ending the run, be counted once in
``net.messages.malformed{verb}``, be answered with the verb's reply and
failure flag when it has one (unanswered otherwise), and leave the
target's state as it was. The protocol is closed: the table's verbs are
the ones :mod:`repro.analysis.verbs` finds sent or handled in ``src/``.
"""

import pathlib

import pytest

import repro
from repro.analysis.source import load_sources
from repro.analysis.verbs import build_model
from repro.overlay.hierarchy import HierarchyNetwork
from repro.net.wire import REQUESTS, VERBS
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
                     "selected": {}},
    "range-offer": {"range": "r", "registrar": "{probe}"},
    "register": {"profile": "{profile}", "kind": "ce",
                 "advertisements": []},
    "resync": {"sub_id": 99},
    "service-invoke": {"operation": "print", "args": {}},
    "set-param": {"name": "room", "value": 1},
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
    "set-param": "printer", "subscribe": "mediator",
    "unsubscribe": "mediator", "unsubscribe-owner": "mediator",
}

#: values of the wrong kind, by the name of the kind they break
WRONG = {
    "str": [5], "int": ["7", True, 1.5], "bool": [1], "list": ["x"],
    "dict": [[1]], "guid": ["zz", 5],
    "[[int, int]]": [5, [[1]], [[1, 0]], [[True, 1]], [(1, 1)]],
    "ContextEvent.from_wire": [5, {"type": "x"}],
    "filter_from_spec": [5, {"op": "bogus"}],
    "Query.from_wire": [5, {}],
    "Profile.from_wire": [5, {"name": "x"}],
    "[Advertisement.from_wire]": ["x", [5]],
}


def _rows():
    rows = []
    for verb, row in sorted(REQUESTS.items()):
        for name, kind, required in row.fields:
            for index, value in enumerate(WRONG.get(kind.name, ())):
                rows.append(pytest.param(
                    verb, {**VALID[verb], name: value},
                    id=f"{verb}-{name}-{kind.name}-{index}"))
            if required:
                payload = dict(VALID[verb])
                del payload[name]
                rows.append(pytest.param(verb, payload,
                                         id=f"{verb}-{name}-missing"))
    return rows


def test_every_request_verb_has_a_valid_payload_and_a_target():
    assert set(VALID) == set(TARGET_OF) == set(REQUESTS)
    # every kind the table uses but ``any`` has wrong values to send
    used = {kind.name for row in REQUESTS.values()
            for _, kind, _ in row.fields}
    assert used - {"any"} <= set(WRONG)


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
        assert [(reply.kind, reply.payload[row.flag]) for reply in replies] \
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
    assert query.query_id in server._scheduled
    sci.run(200)  # the scheduled query still executes
    assert server.explain(query.query_id)["status"] == "executed"
