"""The differential harness: ledger projection == live state, always.

One full SCI deployment runs a CAPA-style scenario — registration storm,
a location subscription, Bob walking, a sensor crash whose lease then
expires (PR 4's failure-detection path) — while scheduler callbacks
capture, at the same instant, the live books and the projection of the
entries appended so far. Every checkpoint must match snapshot-for-
snapshot, and after the run each checkpoint must also equal the naive
full-replay oracle ``ledger_projection(upto=T)`` — which is exactly what
``as_of(T)`` reads. Checkpoint times are fractional on purpose: no entry
can land at the capture instant, so prefix-by-time is unambiguous.
"""

import pytest

from repro.core.api import SCI, SCIConfig
from repro.core.types import TypeSpec
from repro.ledger.ledger import LedgerError, load_ledger_jsonl, write_ledger_jsonl
from repro.ledger.replay import (ReplayProjector, live_snapshot,
                                 projection_snapshot, snapshot_digest)

CHECKPOINTS = (12.25, 22.25, 52.25)
CRASH_AT = 25.0


@pytest.fixture(scope="module")
def scenario():
    sci = SCI(config=SCIConfig(lease_duration=15.0))
    server = sci.create_range("level10", places=["L10"], hosts=["lab-pc"])
    sci.add_door_sensors("level10")
    sci.add_person("bob", room="corridor")
    app = sci.create_application("pathApp", host="lab-pc")
    sci.run(10)

    query = (sci.query("bob")
             .subscribe("location", "topological", subject="bob").build())
    app.submit_query(query)

    captures = []

    def capture():
        live = live_snapshot(server)
        projected = projection_snapshot(
            server.ledger_projection())  # entries appended so far
        captures.append((sci.now, live, projected))

    for checkpoint in CHECKPOINTS:
        sci.scheduler.schedule_at(checkpoint, capture)
    victim = sci.door_sensors["door:corridor--L10.02"]
    sci.scheduler.schedule_at(CRASH_AT, sci.injector.crash, victim)
    sci.walk("bob", "L10.01")
    sci.run_until(55)
    return {"sci": sci, "server": server, "app": app, "query": query,
            "captures": captures, "victim_hex": victim.guid.hex}


def test_scenario_is_not_trivial(scenario):
    final = live_snapshot(scenario["server"])
    assert final["records"], "nobody registered"
    assert final["subscriptions"], "no live subscription"
    assert final["retained"], "nothing retained"
    assert any(facts["delivered"] > 0
               for facts in final["subscriptions"].values()), \
        "no delivery ever happened"
    # the crash + lease-expiry path actually ran, and is on the record
    assert any(entry.kind == "depart"
               and entry.payload == {"entity": scenario["victim_hex"],
                                     "reason": "lease-expired"}
               for entry in scenario["server"].ledger_entries())


def test_projection_matches_live_at_every_checkpoint(scenario):
    assert len(scenario["captures"]) == len(CHECKPOINTS)
    for now, live, projected in scenario["captures"]:
        for view in ("records", "profiles", "retained", "subscriptions"):
            assert projected[view] == live[view], \
                f"{view} diverged at t={now}"
        assert snapshot_digest(projected) == snapshot_digest(live)


def test_as_of_prefix_equals_checkpoint_oracle(scenario):
    # a later full replay of the <=T prefix — the as_of read path — must
    # reproduce what the live books held at T
    server = scenario["server"]
    for now, live, _ in scenario["captures"]:
        replayed = projection_snapshot(server.ledger_projection(upto=now))
        assert replayed == live, f"as-of oracle diverged at t={now}"


def test_as_of_view_answers_historical_membership(scenario):
    server = scenario["server"]
    victim = scenario["victim_hex"]
    before, after = CHECKPOINTS[1], CHECKPOINTS[2]
    assert server.as_of(before).registered(victim)
    assert not server.as_of(after).registered(victim)
    assert server.as_of(before).population() > \
        server.as_of(after).population()
    # the historical resolver sees then-live providers (door sensors
    # output "presence" tag reads)
    assert victim in server.as_of(before).providers_of("presence")
    assert victim not in server.as_of(after).providers_of("presence")


def test_as_of_view_resolves_over_then_live_providers(scenario):
    # the crashed door sensor fed Bob's location chain before its lease
    # expired, and the historical resolver no longer binds it after
    server, victim = scenario["server"], scenario["victim_hex"]
    wanted = TypeSpec("location", "topological", "bob")
    before = server.as_of(20.0).resolve(wanted)
    after = server.as_of(54.0).resolve(wanted)
    assert victim in before.live_entity_hexes()
    assert victim not in after.live_entity_hexes()
    assert (before.node_count(), after.node_count()) == (7, 6)


def test_as_of_view_reads_records_and_retained_events_as_live(scenario):
    server = scenario["server"]
    for now, live, _ in scenario["captures"]:
        view = server.as_of(now)
        for entity_hex, record in live["records"].items():
            assert view.record(entity_hex) == record, f"t={now}"
        for key, event in live["retained"]:
            assert view.retained_event(*key) == event, f"t={now}"
    last = scenario["captures"][-1][1]
    assert last["retained"], "nothing retained to read back"
    assert server.as_of(CHECKPOINTS[-1]).record(
        scenario["victim_hex"]) is None
    assert server.as_of(CHECKPOINTS[-1]).retained_event(
        "location", "topological", "nobody") is None


def test_every_chain_verifies(scenario):
    chains = scenario["server"].ledgers()
    assert chains
    assert sum(chain.verify() for chain in chains) == \
        len(scenario["server"].ledger_entries())


def test_artefact_round_trip_recovers_final_state(scenario, tmp_path):
    server = scenario["server"]
    path = tmp_path / "level10-ledger.jsonl"
    count = write_ledger_jsonl(server.ledgers(), path)
    assert count == len(server.ledger_entries())
    recovered = ReplayProjector.from_records(load_ledger_jsonl(path)).state
    # digest equality: the chain commits to canonical JSON, under which a
    # tuple-valued profile attribute and its JSONL list form are the same
    assert snapshot_digest(projection_snapshot(recovered)) == \
        snapshot_digest(live_snapshot(server))


def test_explain_links_bindings_to_register_entries(scenario):
    sci, server, app = scenario["sci"], scenario["server"], scenario["app"]
    query = sci.query("bob").profiles_of_type("device").build()
    app.submit_query(query)
    sci.run(5)
    trail = server.explain(query.query_id)
    assert trail is not None
    assert trail["status"] == "executed"
    assert trail["bound"], "profile query bound nothing"
    by_hash = {entry.entry_hash: entry for entry in server.ledger_entries()}
    for binding in trail["bound"]:
        ref = binding["register"]
        assert ref is not None, f"{binding['entity']} has no register entry"
        entry = by_hash[ref["hash"]]
        assert entry.kind == "register"
        assert entry.payload["entity"] == binding["entity"]
    for step in trail["steps"]:
        assert step["ref"]["ledger"] == server.ledger.ledger_id
    assert server.explain("q-never-existed") is None
