"""One membership book per range.

The Registrar's records are the only store of who is in a range and what
their profile says; the Profile Manager is a view over them and the ledger
tells each lifecycle fact once. These checks fail on any design that keeps
a second copy — a dict in the Profile Manager, a ``profile-add`` next to
every ``register``.
"""

import json

import pytest

from repro.core.types import TypeSpec
from repro.entities.profile import EntityClass, Profile
from repro.ledger.ledger import (ENTRY_KINDS, LEDGER_SCHEMA, ContextLedger,
                                 LedgerError, entry_hash, load_ledger_jsonl,
                                 write_ledger_jsonl)
from repro.ledger.replay import (live_snapshot, projection_snapshot,
                                 snapshot_digest)
from repro.net.transport import FunctionProcess
from repro.query.model import QueryBuilder, WhatClause
from repro.server.profile_manager import ProfileManager


def _register(network, server, component, name="flex", **attributes):
    profile = Profile(component.guid, name, EntityClass.DEVICE,
                      outputs=[TypeSpec("occupancy", "count")],
                      attributes=attributes)
    component.send(server.registrar.guid, "register",
                   {"kind": "ce", "profile": profile.to_wire()})
    network.scheduler.run_for(5)


def _kinds_since(server, mark):
    return [entry.kind for entry in server.ledger.entries()[mark:]]


def test_profile_manager_owns_no_store(deployed_range):
    server, _ = deployed_range
    assert isinstance(server.profiles, ProfileManager)
    for gone in ("add", "remove", "version", "_profiles", "_advertisements",
                 "_by_name", "on_device_change"):
        assert not hasattr(server.profiles, gone), gone
    assert server.profiles.population() == server.registrar.population() > 0
    for record in server.registrar.records():
        assert server.profiles.get(record.entity_hex) is record.profile


def test_each_lifecycle_fact_is_one_entry(network, guids, deployed_range):
    server, _ = deployed_range
    component = FunctionProcess(guids.mint(), "host-b", network,
                                lambda message: None)
    entity_hex = component.guid.hex

    mark = len(server.ledger)
    _register(network, server, component, room="L10.01")
    assert _kinds_since(server, mark) == ["register"]
    assert server.profiles.get(entity_hex) is \
        server.registrar.record(entity_hex).profile

    mark = len(server.ledger)
    _register(network, server, component, name="renamed", room="L10.02")
    assert _kinds_since(server, mark) == ["register"]
    assert server.profiles.by_name("flex") is None
    assert server.profiles.by_name("renamed") is \
        server.registrar.record(entity_hex).profile

    mark = len(server.ledger)
    assert server.expel_entity(entity_hex)
    assert _kinds_since(server, mark) == ["depart"]
    assert server.profiles.get(entity_hex) is None
    assert (snapshot_digest(projection_snapshot(server.ledger_projection()))
            == snapshot_digest(live_snapshot(server)))


def test_device_patch_refiles_the_what_index(network, guids, deployed_range):
    server, _ = deployed_range
    component = FunctionProcess(guids.mint(), "host-b", network,
                                lambda message: None)
    _register(network, server, component, device="scanner")
    record = server.registrar.record(component.guid.hex)
    mark = len(server.ledger)
    assert server.profiles.update_attributes(record.entity_hex,
                                             {"device": "printer"})
    assert _kinds_since(server, mark) == ["profile-update"]
    matching = server.registrar.matching
    assert record in matching(WhatClause.entity_type("printer"))
    assert record not in matching(WhatClause.entity_type("scanner"))
    assert (snapshot_digest(projection_snapshot(server.ledger_projection()))
            == snapshot_digest(live_snapshot(server)))


def test_vocabulary_is_nine_kinds_and_older_artefacts_are_refused(tmp_path):
    assert len(ENTRY_KINDS) == 9
    assert not {"profile-add", "profile-remove", "retain",
                "delivery"} & set(ENTRY_KINDS)
    assert LEDGER_SCHEMA == "sci.ledger/7"
    with pytest.raises(LedgerError, match="unknown entry kind"):
        ContextLedger("cs:x").append(0.0, "profile-add", {"entity": "aa"})

    ledger = ContextLedger("cs:x")
    ledger.append(1.0, "depart", {"entity": "aa", "reason": "deregistered"})
    path = tmp_path / "ledger.jsonl"
    write_ledger_jsonl([ledger], path)
    assert len(load_ledger_jsonl(path)) == 1
    record = json.loads(path.read_text())
    for older in ("sci.ledger/2", "sci.ledger/3", "sci.ledger/4",
                  "sci.ledger/5", "sci.ledger/6"):
        record["schema"] = older  # the chain itself is still intact
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(LedgerError,
                           match="schema must be 'sci.ledger/7'"):
            load_ledger_jsonl(path)


def test_explain_still_hands_out_a_register_ref_that_recomputes(
        network, deployed_range, registered_app):
    server, _ = deployed_range
    query = QueryBuilder("bob").profiles_of_type("device").build()
    registered_app.submit_query(query)
    network.scheduler.run_for(5)
    trail = server.explain(query.query_id)
    assert trail["status"] == "executed" and trail["bound"]
    by_id = {entry.entry_id: entry for entry in server.ledger_entries()}
    for binding in trail["bound"]:
        ref = binding["register"]
        entry = by_id[ref["entry"]]
        assert entry.kind == "register"
        assert entry.payload["entity"] == binding["entity"]
        assert "profile" in entry.payload
        assert ref["hash"] == entry_hash(
            entry.prev_hash, entry.seq, entry.sim_time, entry.kind,
            entry.payload)
