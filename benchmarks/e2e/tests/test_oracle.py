"""The oracle against a scenario small enough to work out by hand."""

import generate
import oracle


def _sensor(name, type_name, subject, floor, accuracy, **extra):
    return dict({"name": name, "range": "campus", "host": "h0",
                 "room": f"F{floor}.R0", "floor": floor, "type": type_name,
                 "subject": subject, "device": f"{type_name}-dev",
                 "service": False, "accuracy": accuracy, "rating": 0.5}, **extra)


def _three_entity_plan():
    """Two temperature sensors on one subject (s0 ranked first, s1 its
    backup), one identity sensor; s0 is stopped after the first batch."""
    temperature = {"op": "type", "type": "temperature", "representation": None}
    ground = {"op": "and", "parts": [
        temperature, {"op": "attr", "key": "floor", "cmp": "==", "constant": 0}]}
    return generate._plan(
        "hand", 0,
        building={"floors": 2, "rooms": 1, "sensed_doors": False},
        ranges=[{"name": "campus", "places": ["tower"], "hosts": ["h0"],
                 "door_sensors": False}],
        sensors=[_sensor("s0", "temperature", "lab", 0, 1.0),
                 _sensor("s1", "temperature", "lab", 1, 3.0),
                 _sensor("s2", "identity", "door", 0, 1.0, service=True)],
        apps=[{"name": "app", "host": "h0", "owner": None}],
        table=[{"app": "app", "filter": temperature},
               {"app": "app", "filter": ground}],
        batches=[
            {"queries": [
                {"id": "q-sub", "app": "app", "kind": "subscribe", "sensor": 0},
                {"id": "q-once", "app": "app", "kind": "once", "sensor": 2},
                {"id": "q-where", "app": "app", "kind": "profiles_where",
                 "device": "temperature-dev", "room": "F0.R0"},
                {"id": "q-ad", "app": "app", "kind": "advert",
                 "service": "identity-service", "room": "F0.R0",
                 "min_rating": 0.6}],
             "churn": [{"op": "stop", "sensor": 0}]}],
        timeline=[
            {"t": 1.0, "op": "publish", "sensor": 1, "n": 0},
            {"t": 2.0, "op": "publish", "sensor": 2, "n": 1},
            {"t": 3.0, "op": "rotate", "slot": 1, "app": "app",
             "filter": {"op": "not", "inner": ground}},
            {"t": 4.0, "op": "publish", "sensor": 1, "n": 2},
            {"t": 5.0, "op": "publish", "sensor": 2, "n": 3}],
        span=6.0)


def test_expectations_match_the_hand_computed_ones():
    expected = oracle.expect(_three_entity_plan())
    # instance 0: every temperature event; instance 1 (floor 0 temperature)
    # sees nothing before it is rotated out; instance 2 (its negation) sees
    # everything published after the rotation
    assert expected["table"] == [[(1, 0), (1, 2)], [], [(1, 2), (2, 3)]]
    # s0 was stopped, so the "lab" stream ends up on its backup s1; the
    # one-time subscription sees only the first identity event
    assert expected["streams"] == {"app": {
        "temperature|lab": [(1, 0), (1, 2)], "identity|door": [(2, 1)]}}
    assert expected["queries"]["q-sub"] == {
        "ok": True, "status": "executed", "result": None}
    # s0 matches but was churned: it may or may not still be listed
    assert expected["queries"]["q-where"]["result"] == {
        "ok": True, "must": [], "may": ["s0"]}
    # the only identity service is rated 0.5, below the asked 0.6
    assert expected["queries"]["q-ad"]["result"] == {
        "ok": False, "selected": None}
    assert expected["registered"] == {"s1": "campus", "s2": "campus",
                                      "app": "campus"}


def _perfect(expected):
    return {
        "table": {i: list(rows) for i, rows in enumerate(expected["table"])},
        "streams": {app: {key: list(rows) for key, rows in streams.items()}
                    for app, streams in expected["streams"].items()},
        "acks": {qid: {"ok": q["ok"], "status": q["status"]}
                 for qid, q in expected["queries"].items()},
        "results": {"q-where": {"ok": True, "names": ["s0"]},
                    "q-ad": {"ok": False, "selected": None}},
        "registered": dict(expected["registered"]),
    }


def test_a_perfect_run_has_no_failed_operations():
    expected = oracle.expect(_three_entity_plan())
    assert sum(oracle.check(expected, _perfect(expected)).values()) == 0


def test_each_kind_of_failure_is_counted():
    expected = oracle.expect(_three_entity_plan())
    observed = _perfect(expected)
    observed["table"][0] = [(1, 2), (1, 0)]                   # swapped
    observed["table"][2] = [(1, 2), (2, 3), (2, 3)]           # repeated
    observed["streams"]["app"]["identity|door"] = []          # lost
    observed["streams"]["app"]["temperature|lab"].append((2, 3))  # stray
    observed["acks"]["q-sub"]["status"] = "forwarded"
    observed["results"]["q-where"]["names"] = ["s0", "s2"]    # s2 is no match
    observed["registered"]["s1"] = None
    counts = oracle.check(expected, observed)
    assert counts == {"missing": 1, "duplicate": 1, "unexpected": 1,
                      "out_of_order": 1, "query_ack": 1, "query_result": 1,
                      "not_registered": 1}


def test_filter_evaluator():
    event = {"type": "temperature", "subject": "lab", "attrs": {"floor": 3}}
    attr = {"op": "attr", "key": "floor", "cmp": ">=", "constant": 3}
    assert oracle.matches(attr, event)
    assert not oracle.matches({"op": "not", "inner": attr}, event)
    assert not oracle.matches(
        {"op": "attr", "key": "absent", "cmp": "==", "constant": 1}, event)
    assert oracle.matches({"op": "or", "parts": [
        {"op": "type", "type": "identity"},
        {"op": "subject", "subject": "lab"}]}, event)
