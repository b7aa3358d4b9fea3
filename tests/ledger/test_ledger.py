"""Ledger chain mechanics, family merge order and the JSONL artefact."""

import dataclasses
import json

import pytest

from repro.ledger.ledger import (
    ContextLedger,
    GENESIS_HASH,
    LEDGER_SCHEMA,
    LedgerError,
    load_ledger_jsonl,
    merge_entries,
    write_ledger_jsonl,
)


def build_chain():
    ledger = ContextLedger("cs:test")
    ledger.append(1.0, "register", {"entity": "aa", "name": "A"})
    ledger.append(2.0, "profile-update", {"entity": "aa",
                                          "attributes": {"room": "L10.01"}})
    ledger.append(3.0, "depart", {"entity": "aa", "reason": "deregistered"})
    return ledger


class TestChain:
    def test_links_and_ids(self):
        ledger = build_chain()
        entries = ledger.entries()
        assert entries[0].prev_hash == GENESIS_HASH
        assert entries[1].prev_hash == entries[0].entry_hash
        assert entries[2].prev_hash == entries[1].entry_hash
        assert ledger.head == entries[2].entry_hash
        assert [e.entry_id for e in entries] == ["0:0", "0:1", "0:2"]
        assert len(ledger) == 3

    def test_verify_recomputes_clean_chain(self):
        assert build_chain().verify() == 3

    def test_empty_chain(self):
        ledger = ContextLedger("cs:test")
        assert ledger.head == GENESIS_HASH
        assert ledger.verify() == 0

    def test_unknown_kind_rejected(self):
        # renewals are not lifecycle events, and a publish is one entry, not
        # one per recipient: their kinds left the closed set
        for kind in ("gossip", "lease-renew", "retain", "delivery"):
            with pytest.raises(LedgerError, match="unknown entry kind"):
                ContextLedger("cs:test").append(0.0, kind, {})

    def test_ref_is_hash_stable(self):
        entry = build_chain().entry(1)
        assert entry.ref() == {"ledger": "cs:test", "entry": "0:1",
                               "hash": entry.entry_hash}

    def test_tampered_payload_detected(self):
        ledger = build_chain()
        ledger._entries[1] = dataclasses.replace(
            ledger.entry(1), payload={"entity": "aa",
                                      "attributes": {"room": "vault"}})
        with pytest.raises(LedgerError, match="hash mismatch"):
            ledger.verify()

    def test_tampered_link_detected(self):
        ledger = build_chain()
        ledger._entries[2] = dataclasses.replace(
            ledger.entry(2), prev_hash=GENESIS_HASH)
        with pytest.raises(LedgerError, match="prev-hash"):
            ledger.verify()

    def test_tampered_seq_detected(self):
        ledger = build_chain()
        ledger._entries[1] = dataclasses.replace(ledger.entry(1), seq=7)
        with pytest.raises(LedgerError, match="carries seq"):
            ledger.verify()

    def test_non_json_payload_refused_at_seal(self):
        # hashed through repr() these sealed "fine": a set in this process's
        # iteration order, an object by its address, so two runs of one seed
        # disagreed on the head and the artefact writer died on a TypeError
        for value in ({"alpha", "beta", "gamma"}, object()):
            ledger = build_chain()
            ledger.append(4.0, "query", {"query_id": "q", "bound": value})
            assert len(ledger) == 4
            for _ in range(2):  # it stays unsealed: every read refuses
                with pytest.raises(LedgerError,
                                   match=r"'query' entry 0:3.*not JSON"):
                    ledger.head
            assert len(ledger._entries) == 3

    def test_canonical_encoding_is_pinned(self):
        # one shared encoder, no per-call JSONEncoder: sort_keys, compact
        # separators and float repr must stay byte-identical or every
        # archived /4 chain stops verifying
        ledger = build_chain()
        ledger.append(3.5, "publish", {
            "key": ["location", "topological", "bob"], "first_seq": 12,
            "event": {"value": "L10.01", "timestamp": 0.1, "seq": 12},
            "deliveries": [[7, 12], [9, 12]]})
        ledger.append(4.0, "replay", {"deliveries": [[11, 12]]})
        assert ledger.head == "02cb97ab8bb8b170c48c915cea10fd26"
        assert ledger.verify() == 5

    def test_upto_filters_by_time(self):
        assert [e.kind for e in build_chain().entries(upto=2.0)] == \
            ["register", "profile-update"]

    def test_group_commit_seal_points_never_change_the_chain(self):
        # appends are hashed lazily in batch; reading the head mid-stream
        # forces an early seal point that must leave every hash identical
        eager = build_chain().entries()
        staged = ContextLedger("cs:test")
        staged.append(1.0, "register", {"entity": "aa", "name": "A"})
        assert staged.head == eager[0].entry_hash
        staged.append(2.0, "profile-update", {"entity": "aa",
                                              "attributes": {"room": "L10.01"}})
        assert len(staged) == 2  # counts unsealed bodies too
        staged.append(3.0, "depart", {"entity": "aa", "reason": "deregistered"})
        assert staged.entries() == eager
        assert staged.verify() == 3


class TestFamilyMerge:
    def _family(self):
        root = ContextLedger("cs:test")
        shard = ContextLedger("cs:test", shard_rank=1)
        root.append(1.0, "register", {"entity": "aa", "name": "A"})
        shard.append(1.0, "publish",
                     {"key": ["t", "raw", "s"], "first_seq": 1,
                      "event": {"type": "t"}, "deliveries": []})
        shard.append(1.5, "replay", {"deliveries": [[1, 1]]})
        root.append(2.0, "depart", {"entity": "aa", "reason": "x"})
        return root, shard

    def test_rank_is_part_of_the_chain(self):
        """The rank is hashed: one body on two ranks makes two chains."""
        root = ContextLedger("cs:test")
        ranked = ContextLedger("cs:test", shard_rank=3)
        assert ranked.head == GENESIS_HASH
        for chain in (root, ranked):
            chain.append(1.0, "register", {"entity": "aa", "name": "A"})
        assert ranked.entry(0).entry_id == "3:0"
        assert ranked.head != root.head
        assert ranked.verify() == root.verify() == 1

    def test_total_order_breaks_ties_by_rank(self):
        root, shard = self._family()
        merged = merge_entries([root, shard])
        assert [(e.sim_time, e.shard_rank, e.seq) for e in merged] == \
            [(1.0, 0, 0), (1.0, 1, 0), (1.5, 1, 1), (2.0, 0, 1)]

    def test_upto_applies_to_the_family(self):
        root, shard = self._family()
        assert [e.kind for e in merge_entries([root, shard], upto=1.0)] == \
            ["register", "publish"]


class TestArtefact:
    def test_round_trip(self, tmp_path):
        ledger = build_chain()
        path = tmp_path / "ledger.jsonl"
        assert write_ledger_jsonl([ledger], path) == 3
        assert load_ledger_jsonl(path) == \
            [e.to_record() for e in ledger.entries()]

    def test_family_lands_in_merge_order(self, tmp_path):
        root = ContextLedger("cs:test")
        shard = ContextLedger("cs:test", shard_rank=1)
        root.append(1.0, "register", {"entity": "aa", "name": "A"})
        shard.append(0.5, "publish", {"deliveries": [[1, 1]]})
        path = tmp_path / "family.jsonl"
        write_ledger_jsonl([root, shard], path)
        records = load_ledger_jsonl(path)
        assert [(r["time"], r["shard"]) for r in records] == \
            [(0.5, 1), (1.0, 0)]
        assert all(r["schema"] == LEDGER_SCHEMA for r in records)

    def _rewrite(self, path, records):
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
            encoding="utf-8")

    def _exported(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_ledger_jsonl([build_chain()], path)
        return path, load_ledger_jsonl(path)

    def test_truncated_chain_rejected(self, tmp_path):
        path, records = self._exported(tmp_path)
        self._rewrite(path, [records[0], records[2]])
        with pytest.raises(LedgerError, match="non-contiguous"):
            load_ledger_jsonl(path)

    def test_edited_payload_rejected(self, tmp_path):
        path, records = self._exported(tmp_path)
        records[1]["payload"]["attributes"]["room"] = "vault"
        self._rewrite(path, records)
        with pytest.raises(LedgerError, match="does not recompute"):
            load_ledger_jsonl(path)

    def test_spliced_head_rejected(self, tmp_path):
        path, records = self._exported(tmp_path)
        records[2]["prev"] = GENESIS_HASH
        self._rewrite(path, records)
        with pytest.raises(LedgerError, match="chain head"):
            load_ledger_jsonl(path)

    def test_schema_marker_required(self, tmp_path):
        # /1 files carry lease-renew entries, /2 a second membership book,
        # /3 an entry per delivered recipient; the projector has no rule
        # for any of them: refused by version, never mis-projected
        path, records = self._exported(tmp_path)
        for version in ("1", "2", "3"):
            records[0]["schema"] = f"sci.ledger/{version}"
            self._rewrite(path, records)
            with pytest.raises(LedgerError,
                               match="schema must be 'sci.ledger/4'"):
                load_ledger_jsonl(path)

    def test_bool_shard_rejected(self, tmp_path):
        # True == 1 in Python; the validator must still refuse it
        path, records = self._exported(tmp_path)
        records[0]["shard"] = True
        self._rewrite(path, records)
        with pytest.raises(LedgerError, match="non-negative integer"):
            load_ledger_jsonl(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path, records = self._exported(tmp_path)
        records[0]["kind"] = "gossip"
        self._rewrite(path, records)
        with pytest.raises(LedgerError, match="unknown entry kind"):
            load_ledger_jsonl(path)
