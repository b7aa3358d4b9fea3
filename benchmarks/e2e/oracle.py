"""The oracle: expected outputs computed from a plan, without running SCI.

``expect(plan)`` derives, from the generated inputs alone,

* the events every direct (table) subscription instance must receive,
* the events every query subscription stream must receive,
* the outcome of every query (ack, routing status, result content),
* the range every component must be registered in when the run ends.

``check(expected, observed)`` compares that with what the applications
actually saw and counts failed operations: missing, duplicate, unexpected
and out-of-order deliveries, queries whose ack or result differs, and
components that are not registered where they should be.

Delivery order: a subscription fed by several sources sees them interleaved
in mediator-arrival order, which depends on network latency; what the
middleware guarantees — and what is checked — is exactly-once delivery and
publish order *per source* (generate.MIN_SOURCE_GAP makes that well defined).

The filter evaluator below is deliberately the oracle's own: expected
results never come from the code under test.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from typing import Any, Dict, List, Tuple

Plan = Dict[str, Any]
Delivery = Tuple[int, int]          # (sensor index, publish ordinal)

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def matches(spec: Dict[str, Any], event: Dict[str, Any]) -> bool:
    """Evaluate a filter spec against ``{"type", "subject", "attrs"}``."""
    op = spec["op"]
    if op == "type":
        return spec["type"] == event["type"]
    if op == "subject":
        return spec["subject"] == event["subject"]
    if op == "attr":
        if spec["key"] not in event["attrs"]:
            return False
        return _COMPARE[spec["cmp"]](event["attrs"][spec["key"]],
                                     spec["constant"])
    if op == "and":
        return all(matches(part, event) for part in spec["parts"])
    if op == "or":
        return any(matches(part, event) for part in spec["parts"])
    if op == "not":
        return not matches(spec["inner"], event)
    raise ValueError(f"oracle cannot evaluate filter op {op!r}")


def stream_key(sensor: Dict[str, Any]) -> str:
    return f"{sensor['type']}|{sensor['subject']}"


def event_of(sensor: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": sensor["type"], "subject": sensor["subject"],
            "attrs": {"floor": sensor["floor"]}}


def _table_expectations(plan: Plan) -> List[List[Delivery]]:
    """Per subscription instance: initial rows first, then one instance per
    rotation in timeline order. Instances sharing a filter are evaluated
    once per event."""
    sensors = plan["sensors"]
    received: List[List[Delivery]] = [[] for _ in plan["table"]]
    slot_instance = list(range(len(plan["table"])))
    #: canonical filter text -> (spec, live instance ids)
    groups: Dict[str, Tuple[Dict[str, Any], set]] = {}

    def file(instance: int, spec: Dict[str, Any]) -> str:
        text = json.dumps(spec, sort_keys=True)
        groups.setdefault(text, (spec, set()))[1].add(instance)
        return text

    filed = [file(i, row["filter"]) for i, row in enumerate(plan["table"])]
    for op in plan["timeline"]:
        if op["op"] == "rotate":
            old = slot_instance[op["slot"]]
            groups[filed[old]][1].discard(old)
            new = len(received)
            received.append([])
            filed.append(file(new, op["filter"]))
            slot_instance[op["slot"]] = new
        elif op["op"] == "publish":
            event = event_of(sensors[op["sensor"]])
            for spec, live in groups.values():
                if live and matches(spec, event):
                    for instance in live:
                        received[instance].append((op["sensor"], op["n"]))
    return received


def _final_state(plan: Plan):
    """Who is gone at the end, and each range name's final generation."""
    gone, renamed = set(), {}
    for batch in plan["batches"]:
        for step in batch["churn"]:
            if step["op"] in ("stop", "crash"):
                gone.add(step["sensor"])
            elif step["op"] in ("leave", "fail"):
                renamed[step["range"]] = step["new"]["name"]

    def final_name(range_name: str) -> str:
        while range_name in renamed:
            range_name = renamed[range_name]
        return range_name

    return gone, final_name


def expect(plan: Plan) -> Dict[str, Any]:
    sensors = plan["sensors"]
    gone, final_name = _final_state(plan)
    host_range = {host: row["name"] for row in plan["ranges"]
                  for host in row["hosts"]}
    room_range = {place: row["name"] for row in plan["ranges"]
                  for place in row["places"]}
    single = plan["ranges"][0]["name"] if len(plan["ranges"]) == 1 else None

    def range_of_room(room: str) -> str:
        return single if single is not None else room_range[room]

    # the provider every subject's streams end up on: best-ranked survivor
    providers: Dict[str, int] = {}
    for index, sensor in enumerate(sensors):
        if index in gone:
            continue
        key = stream_key(sensor)
        best = providers.get(key)
        if best is None or ((sensor["accuracy"], sensor["name"])
                            < (sensors[best]["accuracy"], sensors[best]["name"])):
            providers[key] = index
    published: Dict[int, List[Delivery]] = {}
    for op in plan["timeline"]:
        if op["op"] == "publish":
            published.setdefault(op["sensor"], []).append(
                (op["sensor"], op["n"]))

    app_range = {app["name"]: host_range.get(app["host"])
                 for app in plan["apps"]}

    churned_or_late = gone | {i for i, s in enumerate(sensors) if s.get("late")}
    streams: Dict[str, Dict[str, List[Delivery]]] = {}
    queries: Dict[str, Dict[str, Any]] = {}
    for batch in plan["batches"]:
        for query in batch["queries"]:
            kind = query["kind"]
            room = query.get("room")
            local = (room is None
                     or range_of_room(room) == app_range[query["app"]])
            outcome: Dict[str, Any] = {
                "ok": True, "status": "executed" if local else "forwarded",
                "result": None}
            if kind in ("subscribe", "once"):
                key = stream_key(sensors[query["sensor"]])
                events = published.get(providers[key], [])
                streams.setdefault(query["app"], {})[key] = (
                    events[:1] if kind == "once" else list(events))
            elif kind == "profile_named":
                outcome["result"] = {"ok": True, "must": [query["name"]],
                                     "may": []}
            elif kind == "profiles_where":
                hits = [i for i, s in enumerate(sensors)
                        if s["device"] == query["device"]
                        and s["room"] == room]
                outcome["result"] = {
                    "ok": True,
                    "must": sorted(sensors[i]["name"] for i in hits
                                   if i not in churned_or_late),
                    "may": sorted(sensors[i]["name"] for i in hits
                                  if i in churned_or_late)}
            elif kind == "advert":
                offers = [s for s in sensors
                          if s["service"] and s["room"] == room
                          and f"{s['type']}-service" == query["service"]
                          and s["rating"] >= query["min_rating"]]
                best = max(offers, key=lambda s: (s["rating"], s["name"]),
                           default=None)
                outcome["result"] = {
                    "ok": best is not None,
                    "selected": None if best is None else best["name"]}
            elif kind != "track":
                raise ValueError(f"oracle knows no query kind {kind!r}")
            queries[query["id"]] = outcome

    # where everything must be registered when the run ends
    registered: Dict[str, Any] = {}
    for index, sensor in enumerate(sensors):
        if index not in gone:
            registered[sensor["name"]] = final_name(sensor["range"])
    last_room = {person["key"]: person["room"] for person in plan["people"]}
    for op in plan["timeline"]:
        if op["op"] == "walk":
            last_room[op["key"]] = op["room"]
    for app in plan["apps"]:
        if app["owner"] is not None:
            registered[app["name"]] = final_name(
                range_of_room(last_room[app["owner"]]))
        else:
            registered[app["name"]] = final_name(app_range[app["name"]])
    return {"table": _table_expectations(plan), "streams": streams,
            "queries": queries, "registered": registered}


# -- comparison ---------------------------------------------------------------

def _compare_deliveries(expected: List[Delivery], got: List[Delivery],
                        counts: Counter) -> None:
    want, have = Counter(map(tuple, expected)), Counter(map(tuple, got))
    counts["missing"] += sum((want - have).values())
    for delivery, copies in have.items():
        if delivery not in want:
            counts["unexpected"] += copies
        elif copies > want[delivery]:
            counts["duplicate"] += copies - want[delivery]
    last_from: Dict[int, int] = {}
    for sensor, ordinal in got:
        if ordinal < last_from.get(sensor, -1):
            counts["out_of_order"] += 1
        last_from[sensor] = max(ordinal, last_from.get(sensor, -1))


def check(expected: Dict[str, Any], observed: Dict[str, Any]) -> Dict[str, int]:
    """Failed operations by cause; every value 0 means the run was correct.

    ``observed`` mirrors ``expected``: ``table`` (instance -> deliveries),
    ``streams`` (app -> stream key -> deliveries), ``acks`` (query id ->
    ``{"ok", "status"}``), ``results`` (query id -> ``{"ok", "names"}`` or
    ``{"ok", "selected"}``), ``registered`` (component -> range or None).
    """
    counts: Counter = Counter(
        missing=0, duplicate=0, unexpected=0, out_of_order=0,
        query_ack=0, query_result=0, not_registered=0)
    for instance, want in enumerate(expected["table"]):
        _compare_deliveries(want, observed["table"].get(instance, []), counts)
    for app in set(expected["streams"]) | set(observed["streams"]):
        want_streams = expected["streams"].get(app, {})
        got_streams = observed["streams"].get(app, {})
        for key in set(want_streams) | set(got_streams):
            _compare_deliveries(want_streams.get(key, []),
                                got_streams.get(key, []), counts)
    for query_id, want in expected["queries"].items():
        ack = observed["acks"].get(query_id)
        if (ack is None or bool(ack.get("ok")) != want["ok"]
                or ack.get("status") != want["status"]):
            counts["query_ack"] += 1
            continue
        result = want["result"]
        if result is None:
            continue
        got = observed["results"].get(query_id)
        if got is None or bool(got.get("ok")) != result["ok"]:
            counts["query_result"] += 1
        elif "must" in result:
            names = set(got.get("names", ()))
            if not (set(result["must"]) <= names
                    <= set(result["must"]) | set(result["may"])):
                counts["query_result"] += 1
        elif got.get("selected") != result["selected"]:
            counts["query_result"] += 1
    for name, range_name in expected["registered"].items():
        if observed["registered"].get(name) != range_name:
            counts["not_registered"] += 1
    return dict(counts)
