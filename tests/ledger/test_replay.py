"""Unit projection: each entry kind folds into the expected books."""

from repro.ledger.ledger import (ContextLedger, load_ledger_jsonl,
                                 write_ledger_jsonl)
from repro.ledger.replay import (ReplayProjector, projection_snapshot,
                                 snapshot_digest)
from repro.ledger.timetravel import AsOfView


def _profile_wire(entity_hex, name, **attributes):
    return {"entity_id": entity_hex, "name": name, "entity_class": "ce",
            "outputs": [], "inputs": [], "params": {},
            "attributes": dict(attributes), "quality": {}}


def build_ledger():
    """A ledger exercising every entry kind once (and then some)."""
    ledger = ContextLedger("cs:replay")
    ledger.append(1.0, "register", {
        "entity": "aa", "name": "S1", "kind": "ce", "host": "h1",
        "registered_at": 1.0,
        "profile": _profile_wire("aa", "S1", room="L10.01"),
        "advertisements": []})
    ledger.append(3.0, "register", {
        "entity": "bb", "name": "S2", "kind": "ce", "host": "h1",
        "registered_at": 3.0,
        "profile": _profile_wire("bb", "S2"), "advertisements": []})
    ledger.append(4.0, "profile-update",
                  {"entity": "aa", "attributes": {"room": "L10.02"}})
    ledger.append(5.0, "subscribe", {
        "sub_id": 7, "subscriber": "bb", "filter": {"kind": "type",
                                                    "type": "location"},
        "one_time": False, "owner": "app"})
    ledger.append(6.0, "publish", {
        "key": ["location", "topological", "bob"],
        "event": {"type": "location", "value": "L10.01"},
        "deliveries": [[7, 12]]})
    ledger.append(7.0, "replay", {"deliveries": [[7, 12], [7, 13]]})
    ledger.append(8.0, "query", {"query_id": "q-1", "event": "executed",
                                 "mode": "profile", "bound": ["aa"]})
    return ledger


class TestProjection:
    def test_membership_and_lease(self):
        state = ReplayProjector.from_entries(build_ledger().entries()).state
        # the lifecycle is audited, the moving lease deadline is not
        assert state.records["aa"] == {"name": "S1", "kind": "ce",
                                       "host": "h1", "registered_at": 1.0}
        assert set(state.records) == {"aa", "bb"}
        assert state.entries_applied == 7

    def test_profile_update_patches_attributes(self):
        state = ReplayProjector.from_entries(build_ledger().entries()).state
        assert state.profiles["aa"]["profile"]["attributes"] == \
            {"room": "L10.02"}

    def test_register_is_the_profile_in_force(self):
        # one book: the membership entry carries the profile view too, and
        # a re-registration replaces the patched copy wholesale
        ledger = build_ledger()
        state = ReplayProjector.from_entries(ledger.entries()).state
        assert set(state.profiles) == set(state.records) == {"aa", "bb"}
        ledger.append(9.0, "register", {
            "entity": "aa", "name": "S1", "kind": "ce", "host": "h2",
            "registered_at": 9.0,
            "profile": _profile_wire("aa", "S1", floor=10),
            "advertisements": [{"service_name": "s", "operations": [],
                                "attributes": {}}]})
        state = ReplayProjector.from_entries(ledger.entries()).state
        assert state.profiles["aa"]["profile"]["attributes"] == {"floor": 10}
        assert len(state.profiles["aa"]["advertisements"]) == 1
        assert state.records["aa"]["host"] == "h2"

    def test_projection_never_mutates_entry_payloads(self):
        # the update must patch a copy: the original wire belongs to an
        # already-hashed entry, so in-place patching would break verify()
        ledger = build_ledger()
        projector = ReplayProjector.from_entries(ledger.entries())
        assert ledger.entry(0).payload["profile"]["attributes"] == \
            {"room": "L10.01"}
        assert ledger.verify() == 7
        # the read side: the projection holds entry dicts by reference (copy
        # on write), so what a view hands out must be a copy — scribbling
        # on it reaches neither the chain nor the next read
        view = AsOfView(projector.state, registry=None, time=8.0)
        for wire in (view.profile("bb"), view.profile_by_name("S2"),
                     view.profile("aa")):
            wire["attributes"]["room"] = "vault"
            wire["outputs"].append("scribble")
        assert ledger.verify() == 7
        assert view.profile("bb")["attributes"] == {}
        assert view.profile("aa") == _profile_wire("aa", "S1", room="L10.02")

    def test_subscription_and_delivery_count(self):
        state = ReplayProjector.from_entries(build_ledger().entries()).state
        # one from the publish that served it, two from the replay
        assert state.subscriptions[7]["delivered"] == 3
        assert state.subscriptions[7]["owner"] == "app"

    def test_consumed_one_time_subscription_precedes_its_publish(self):
        # the entry is appended when the fan-out completes, so a one-time
        # subscription it consumed is already unsubscribed, at the same
        # sim-time; the pair naming it is ignored and the other one counts
        ledger = build_ledger()
        ledger.append(9.0, "subscribe", {
            "sub_id": 8, "subscriber": "bb", "filter": {"kind": "all"},
            "one_time": True, "owner": None})
        ledger.append(10.0, "unsubscribe", {"sub_id": 8})
        ledger.append(10.0, "publish", {
            "key": ["location", "topological", "ada"],
            "event": {"type": "location", "value": "L10.02"},
            "deliveries": [[8, 15], [7, 15]]})
        state = ReplayProjector.from_entries(ledger.entries()).state
        assert set(state.subscriptions) == {7}
        assert state.subscriptions[7]["delivered"] == 4
        assert len(state.retained) == 2

    def test_retained_store(self):
        state = ReplayProjector.from_entries(build_ledger().entries()).state
        key = ("location", "topological", "bob")
        assert state.retained[key] == {"type": "location", "value": "L10.01"}

    def test_retained_store_order_is_insertion_order(self):
        # an update keeps its key's place; an evicted key that comes back
        # goes to the end, as in the mediator's store
        ledger = build_ledger()
        for time, subject, value in ((9.0, "ada", "L10.02"),
                                     (10.0, "bob", "L10.03")):
            ledger.append(time, "publish", {
                "key": ["location", "topological", subject],
                "event": {"value": value}, "deliveries": []})
        subjects = lambda state: [key[2] for key in state.retained]
        state = ReplayProjector.from_entries(ledger.entries()).state
        assert subjects(state) == ["bob", "ada"]
        ledger.append(11.0, "retain-evict",
                      {"key": ["location", "topological", "bob"]})
        ledger.append(12.0, "publish", {
            "key": ["location", "topological", "bob"],
            "event": {"value": "L10.04"}, "deliveries": []})
        state = ReplayProjector.from_entries(ledger.entries()).state
        assert subjects(state) == ["ada", "bob"]
        assert projection_snapshot(state)["retained"][-1] == \
            [["location", "topological", "bob"], {"value": "L10.04"}]

    def test_query_lifecycle_accumulates(self):
        state = ReplayProjector.from_entries(build_ledger().entries()).state
        assert [step["event"] for step in state.queries["q-1"]] == ["executed"]

    def test_teardown_kinds(self):
        ledger = build_ledger()
        ledger.append(9.0, "unsubscribe", {"sub_id": 7})
        ledger.append(10.0, "retain-evict",
                      {"key": ["location", "topological", "bob"]})
        ledger.append(12.0, "depart", {"entity": "aa",
                                       "reason": "deregistered"})
        ledger.append(13.0, "depart", {"entity": "bb",
                                       "reason": "lease-expired"})
        state = ReplayProjector.from_entries(ledger.entries()).state
        assert state.subscriptions == {}
        assert state.retained == {}
        assert state.profiles == {}
        assert state.records == {}

    def test_stragglers_for_unknown_targets_ignored(self):
        ledger = ContextLedger("cs:replay")
        ledger.append(1.0, "depart", {"entity": "zz",
                                      "reason": "lease-expired"})
        ledger.append(2.0, "publish", {"key": ["t", "raw", "s"],
                                       "event": {"type": "t"},
                                       "deliveries": [[99, 1]]})
        ledger.append(2.5, "replay", {"deliveries": [[99, 1]]})
        ledger.append(3.0, "profile-update", {"entity": "zz",
                                              "attributes": {"a": 1}})
        state = ReplayProjector.from_entries(ledger.entries()).state
        assert state.records == {} and state.subscriptions == {}


class TestCrashRecovery:
    def test_from_records_equals_from_entries(self, tmp_path):
        # the JSONL artefact alone rebuilds the same books — the
        # crash-recovery path needs no live process
        ledger = build_ledger()
        path = tmp_path / "ledger.jsonl"
        write_ledger_jsonl([ledger], path)
        live = ReplayProjector.from_entries(ledger.entries()).state
        recovered = ReplayProjector.from_records(load_ledger_jsonl(path)).state
        assert projection_snapshot(recovered) == projection_snapshot(live)
        assert snapshot_digest(projection_snapshot(recovered)) == \
            snapshot_digest(projection_snapshot(live))

    def test_same_prefix_same_projection(self):
        entries = build_ledger().entries()
        first = projection_snapshot(ReplayProjector.from_entries(entries).state)
        second = projection_snapshot(ReplayProjector.from_entries(entries).state)
        assert first == second
