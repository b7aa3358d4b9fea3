#!/usr/bin/env python
"""Ledger smoke gate: replay projection must equal the live books.

One seeded SCI deployment runs a registration storm, a location
subscription, Bob walking the building, and a sensor crash whose lease
then expires (the PR-4 failure-detection path). The gate asserts:

* **replay determinism**: projecting the full ledger reproduces the
  live registrar / profile / retained / subscription books digest-for-
  digest, and the ``as_of(T)`` prefix oracle matches a mid-run live
  checkpoint captured by a scheduler callback;
* **chain integrity**: every range's hash chain verifies end-to-end
  and the per-chain totals add up to the merged stream;
* **hash budget**: ``entry_hash`` calls are counted and printed per step.
  ``verify``, the chain's first read, seals it in N calls for N entries,
  the merged read after it makes none, and the export and the load make
  N each (a ``verify`` that seals and then recomputes the chain makes 2N);
* **one book**: one ``register`` entry per registration the Registrar
  counted, one ``depart`` per departure it announced, and no kind outside
  ``ENTRY_KINDS``; entries and canonical bytes (what each ``verify``
  hashes once) are printed per kind;
* **canonical bytes**: every entry's body, as the ledger's shared encoder
  renders it, equals the stdlib ``json.dumps`` with sorted keys and
  compact separators;
* **one entry per publish**: no more ``publish`` entries than the mediator
  counted publishes, and the ``deliveries`` lists of the ``publish`` and
  ``replay`` entries add up to the deliveries it counted — an entry per
  recipient cannot come back unnoticed;
* **streamed digest**: ``snapshot_digest``, which hashes the snapshot's
  text a piece at a time, equals ``blake2b`` of the whole
  ``json.dumps(sort_keys=True, separators=(",", ":"))`` text, for the live
  and the projected books, at the default batch and at one item a piece;
* **artefact round-trip**: the exported JSONL validates, reloads, and
  projects to the same digest as the live books;
* **time travel**: historical membership flips across the crash (the
  victim is registered before, gone after) and ``explain`` links an
  executed query's bindings back to ``register`` entries by hash;
* **one entry per routing decision**: the explained query's trail is a
  single step, and no ``query`` entry in the run is a bare routing step.

Exits non-zero on any failure, so CI can gate on it. Usage::

    PYTHONPATH=src python scripts/smoke_ledger.py
"""

import collections
import json
from hashlib import blake2b
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro import SCI  # noqa: E402
from repro.core.api import SCIConfig  # noqa: E402
from repro.ledger import ledger as ledger_module  # noqa: E402
from repro.ledger import replay as replay_module  # noqa: E402
from repro.ledger.ledger import (ENTRY_KINDS, entry_body,  # noqa: E402
                                 load_ledger_jsonl, write_ledger_jsonl)
from repro.ledger.replay import (ReplayProjector, live_snapshot,  # noqa: E402
                                 projection_snapshot, snapshot_digest)

SEED = 8
CHECKPOINT = 22.25  # fractional: no entry can land at the capture instant
CRASH_AT = 25.0


def check(condition, label):
    status = "ok" if condition else "FAIL"
    print(f"smoke-ledger: {status} — {label}")
    return bool(condition)


def run_scenario():
    sci = SCI(config=SCIConfig(seed=SEED, lease_duration=15.0))
    server = sci.create_range("level10", places=["L10"], hosts=["lab-pc"])
    departures = []
    announce = server.registrar.on_departure

    def departed(record, reason):
        departures.append(record.entity_hex)
        announce(record, reason)

    server.registrar.on_departure = departed
    sci.add_door_sensors("level10")
    sci.add_person("bob", room="corridor")
    app = sci.create_application("pathApp", host="lab-pc")
    sci.run(10)
    app.submit_query(sci.query("bob")
                     .subscribe("location", "topological", subject="bob")
                     .build())

    captured = {}

    def capture():
        captured["live"] = live_snapshot(server)

    sci.scheduler.schedule_at(CHECKPOINT, capture)
    victim = sci.door_sensors["door:corridor--L10.02"]
    sci.scheduler.schedule_at(CRASH_AT, sci.injector.crash, victim)
    sci.walk("bob", "L10.01")
    sci.run_until(55)
    return sci, server, app, captured, victim.guid.hex, departures


def counting_hashes(step):
    """Run ``step()``; returns its result and the ``entry_hash`` calls made."""
    real = ledger_module.entry_hash
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    ledger_module.entry_hash = counted
    try:
        return step(), calls
    finally:
        ledger_module.entry_hash = real


def print_kind_table(entries):
    """Entries and canonical bytes per kind: what every audit hashes.

    Returns the counts per kind and how many bodies the ledger's shared
    encoder rendered otherwise than the stdlib's ``json.dumps``."""
    counts, sizes = collections.Counter(), collections.Counter()
    differ = 0
    for entry in entries:
        body = entry_body(entry.seq, entry.sim_time, entry.kind, entry.payload)
        differ += body != json.dumps(
            [entry.seq, entry.sim_time, entry.kind, entry.payload],
            sort_keys=True, separators=(",", ":"))
        counts[entry.kind] += 1
        sizes[entry.kind] += len(body)
    total = sum(sizes.values())
    print(f"smoke-ledger: {'kind':<15}{'entries':>8}{'bytes':>9}{'share':>7}")
    for kind in ENTRY_KINDS:
        print(f"smoke-ledger: {kind:<15}{counts[kind]:>8}{sizes[kind]:>9}"
              f"{sizes[kind] / total:>7.1%}")
    print(f"smoke-ledger: {'total':<15}{len(entries):>8}{total:>9}")
    return counts, differ


def main() -> int:
    ok = True
    print("smoke-ledger: seeded crash scenario with mid-run checkpoint...")
    sci, server, app, captured, victim_hex, departures = run_scenario()
    chains = server.ledgers()
    verified, verify_calls = counting_hashes(
        lambda: sum(chain.verify() for chain in chains))
    entries, read_calls = counting_hashes(server.ledger_entries)
    kinds = {entry.kind for entry in entries}
    expired = any(entry.kind == "depart"
                  and entry.payload == {"entity": victim_hex,
                                        "reason": "lease-expired"}
                  for entry in entries)
    ok &= check({"register", "publish", "depart"} <= kinds and expired,
                f"scenario is non-trivial ({len(entries)} entries, "
                f"{len(kinds)} kinds, the crash recorded as a lease-expired "
                f"depart)")

    counts, differ = print_kind_table(entries)
    ok &= check(differ == 0,
                f"canonical bytes: the shared encoder renders all "
                f"{len(entries)} bodies as json.dumps(sort_keys=True, "
                f"separators=(',', ':')) does ({differ} differ)")
    ok &= check(counts["register"] == server.registrar.registrations
                and counts["depart"] == len(departures) > 0
                and set(counts) <= set(ENTRY_KINDS),
                f"one book: {counts['register']} register entries for "
                f"{server.registrar.registrations} registrations, "
                f"{counts['depart']} depart for {len(departures)} "
                f"departures, every kind within the {len(ENTRY_KINDS)}")

    metrics = sci.network.obs.metrics
    published = int(metrics.get("mediator.events.published").total())
    delivered = int(metrics.get("mediator.events.delivered").total())
    listed = sum(len(entry.payload["deliveries"]) for entry in entries
                 if entry.kind in ("publish", "replay"))
    ok &= check(0 < counts["publish"] <= published
                and listed == delivered > 0,
                f"one entry per publish: {counts['publish']} publish entries "
                f"for {published} publishes, {listed} listed deliveries for "
                f"{delivered} delivered")

    live = live_snapshot(server)
    projected = projection_snapshot(server.ledger_projection())
    ok &= check(snapshot_digest(projected) == snapshot_digest(live),
                "full replay projects to the live books")
    items = sum(len(section) for section in live.values())
    default, streamed = replay_module._DIGEST_BATCH, {}
    try:
        for batch in (default, 1):  # and one piece per section item
            replay_module._DIGEST_BATCH = batch
            streamed[batch] = (snapshot_digest(live),
                               snapshot_digest(projected))
    finally:
        replay_module._DIGEST_BATCH = default
    stdlib = tuple(blake2b(json.dumps(
        snapshot, sort_keys=True, separators=(",", ":")).encode("utf-8"),
        digest_size=16).hexdigest() for snapshot in (live, projected))
    ok &= check(all(pair == stdlib for pair in streamed.values()),
                f"streamed digests of the live and projected books "
                f"({items} section items, batches of "
                f"{' and '.join(map(str, streamed))}) equal the json.dumps "
                f"text's ({stdlib[0][:12]}…)")

    replayed = projection_snapshot(server.ledger_projection(upto=CHECKPOINT))
    ok &= check(replayed == captured["live"],
                f"as-of prefix oracle matches the t={CHECKPOINT} checkpoint")

    ok &= check(verified == len(entries),
                f"every chain verifies ({verified} entries across "
                f"{len(chains)} chains)")

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "level10-ledger.jsonl"
        count, export_calls = counting_hashes(
            lambda: write_ledger_jsonl(chains, path))
        records, load_calls = counting_hashes(lambda: load_ledger_jsonl(path))
        recovered = ReplayProjector.from_records(records).state
        ok &= check(count == len(entries)
                    and snapshot_digest(projection_snapshot(recovered))
                    == snapshot_digest(live),
                    f"JSONL artefact round-trips ({count} records)")
    print(f"smoke-ledger: entry_hash calls: verify {verify_calls}, "
          f"ledger_entries() {read_calls}, export {export_calls}, "
          f"load {load_calls}")
    total = len(entries)
    ok &= check(verify_calls == export_calls == load_calls == total
                and read_calls == 0,
                f"hash budget: verify, export and load hash each of the "
                f"{total} entries once, the read after verify none")

    before, after = CHECKPOINT, 54.25
    ok &= check(server.as_of(before).registered(victim_hex)
                and not server.as_of(after).registered(victim_hex),
                "time travel sees the victim before the crash, not after")
    ok &= check(victim_hex in server.as_of(before).providers_of("presence")
                and victim_hex
                not in server.as_of(after).providers_of("presence"),
                "historical provider lookup tracks the crash")

    query = sci.query("bob").profiles_of_type("device").build()
    app.submit_query(query)
    sci.run(5)
    trail = server.explain(query.query_id)
    by_hash = {entry.entry_hash for entry in server.ledger_entries()}
    ok &= check(trail is not None and trail["status"] == "executed"
                and trail["bound"]
                and all(b["register"] is not None
                        and b["register"]["hash"] in by_hash
                        for b in trail["bound"]),
                "explain links every binding to a register entry by hash")
    routed = sum(1 for entry in server.ledger_entries()
                 if entry.kind == "query" and entry.payload["event"] == "routed")
    ok &= check(trail is not None and len(trail["steps"]) == 1
                and routed == 0,
                f"one query entry per routing decision (the explained trail "
                f"has {len(trail['steps']) if trail else 0} step, {routed} "
                f"routing-only entries in the run)")

    if not ok:
        print("smoke-ledger: FAIL")
        return 1
    print("smoke-ledger: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
