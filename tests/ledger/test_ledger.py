"""Ledger chain mechanics, family merge order and the JSONL artefact."""

import dataclasses
import importlib.util
import json
import sys
from dataclasses import fields
from hashlib import blake2b

import pytest

from repro.ledger import ledger as ledger_module
from repro.ledger.ledger import (
    ContextLedger,
    GENESIS_HASH,
    LEDGER_SCHEMA,
    LedgerEntry,
    LedgerError,
    load_ledger_jsonl,
    entry_body,
    merge_entries,
    write_ledger_jsonl,
)
from repro.ledger.replay import snapshot_digest


def build_chain():
    ledger = ContextLedger("cs:test")
    ledger.append(1.0, "register", {"entity": "aa", "name": "A"})
    ledger.append(2.0, "profile-update", {"entity": "aa",
                                          "attributes": {"room": "L10.01"}})
    ledger.append(3.0, "depart", {"entity": "aa", "reason": "deregistered"})
    return ledger


@pytest.fixture
def hash_calls(monkeypatch):
    """The seq of every ``entry_hash`` call: one per entry sealed or checked."""
    calls = []
    real = ledger_module.entry_hash

    def counted(prev_hash, seq, sim_time, kind, payload):
        calls.append(seq)
        return real(prev_hash, seq, sim_time, kind, payload)

    monkeypatch.setattr(ledger_module, "entry_hash", counted)
    return calls


class TestChain:
    def test_links_and_ids(self):
        ledger = build_chain()
        entries = ledger.entries()
        assert entries[0].prev_hash == GENESIS_HASH
        assert entries[1].prev_hash == entries[0].entry_hash
        assert entries[2].prev_hash == entries[1].entry_hash
        assert ledger.head == entries[2].entry_hash
        assert [e.entry_id for e in entries] == ["0", "1", "2"]
        assert len(ledger) == 3

    def test_verify_recomputes_clean_chain(self):
        assert build_chain().verify() == 3

    def test_verify_hashes_an_unsealed_chain_once(self, hash_calls):
        # verify seals the tail onto the prefix it has just checked: the
        # tail is not hashed a second time
        assert build_chain().verify() == 3
        assert hash_calls == [0, 1, 2]

    def test_verify_rechecks_the_sealed_prefix_and_hashes_the_tail_once(
            self, hash_calls):
        ledger = build_chain()
        ledger.head
        ledger.append(4.0, "register", {"entity": "bb", "name": "B"})
        ledger.append(5.0, "depart", {"entity": "bb", "reason": "x"})
        del hash_calls[:]
        assert ledger.verify() == 5
        assert hash_calls == [0, 1, 2, 3, 4]

    def test_broken_prefix_is_never_extended(self):
        ledger = build_chain()
        ledger._entries[1] = dataclasses.replace(
            ledger.entry(1), payload={"entity": "aa",
                                      "attributes": {"room": "vault"}})
        ledger.append(4.0, "register", {"entity": "bb", "name": "B"})
        ledger.append(5.0, "depart", {"entity": "bb", "reason": "x"})
        with pytest.raises(LedgerError, match="hash mismatch"):
            ledger.verify()
        assert len(ledger._entries) == 3
        assert len(ledger) == 5

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
        assert entry.ref() == {"ledger": "cs:test", "entry": "1",
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
                                   match=r"'query' entry 3.*not JSON"):
                    ledger.head
            assert len(ledger._entries) == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), True, False, "1.0",
                                     None])
    def test_time_must_be_a_finite_number(self, bad):
        # NaN and the infinities would hash and verify, and NaN, which
        # compares false with everything, has no place in the merge order
        ledger = build_chain()
        with pytest.raises(LedgerError, match="time must be a finite"):
            ledger.append(bad, "register", {"entity": "bb", "name": "B"})
        assert len(ledger) == 3
        assert ledger.verify() == 3

    def test_int_time_is_a_time(self):
        ledger = ContextLedger("cs:test")
        ledger.append(0, "register", {"entity": "aa", "name": "A"})
        assert ledger.entry(0).sim_time == 0 and ledger.verify() == 1

    def test_time_never_runs_backwards(self):
        # a chain is in time order, so merge_entries hands one chain back
        # unsorted; an earlier time would put it out of that order
        ledger = build_chain()
        last = ledger.entries()[-1].sim_time
        with pytest.raises(LedgerError, match="before the chain's last"):
            ledger.append(last - 0.5, "register", {"entity": "bb", "name": "B"})
        ledger.append(last, "register", {"entity": "bb", "name": "B"})
        assert len(ledger) == 4 and ledger.verify() == 4

    def test_canonical_encoding_is_pinned(self):
        # one shared encoder, no per-call JSONEncoder: sort_keys, compact
        # separators and float repr must stay byte-identical or every
        # archived /6 chain stops verifying
        ledger = build_chain()
        ledger.append(3.5, "publish", {
            "key": ["location", "topological", "bob"],
            "event": {"value": "L10.01", "timestamp": 0.1, "seq": 12},
            "deliveries": [[7, 12], [9, 12]]})
        ledger.append(4.0, "replay", {"deliveries": [[11, 12]]})
        ledger.append(4.0, "query", {
            "query_id": "q-1", "event": "executed", "mode": "profile",
            "when": "now", "subscriber": "bb", "bound": ["aa"]})
        assert ledger.head == "57794a71950e57b1d4ec7725f31dea51"
        assert ledger.verify() == 6

    def test_body_has_no_rank(self):
        # the body is [seq, sim_time, kind, payload]: a chain is named by
        # its ledger id, and nothing in an entry carries a shard rank
        assert "shard_rank" not in {field.name for field in fields(LedgerEntry)}
        entry = build_chain().entry(1)
        assert json.loads(entry_body(entry.seq, entry.sim_time, entry.kind,
                                     entry.payload)) == \
            [1, 2.0, "profile-update",
             {"entity": "aa", "attributes": {"room": "L10.01"}}]
        assert "shard" not in entry.to_record()

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


class TestCanonicalEncoder:
    """One encoder, built once, shared by every body and digest: a failed
    encode must not leave anything behind for the next one."""

    VALUES = [
        [0, 1.5, "register", {"b": 1, "a": [True, None, "x"]}],
        {"\u00e9t\u00e9": "caf\u00e9 \u2603", "z": {"y": [], "x": {}}},
        [-0.0, 1e300, -1e-300, 2 ** 70, float("nan"), float("inf"),
         float("-inf"), 0.1],
        ("tuple", ("nested",), []),
    ]

    @staticmethod
    def stdlib(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("value", VALUES)
    def test_matches_the_stdlib(self, value):
        assert ledger_module._canonical(value) == self.stdlib(value)

    def test_without_the_c_accelerator_the_stdlib_encodes(self, monkeypatch):
        # a second copy of the module, loaded as if ``_json`` were missing
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        spec = importlib.util.spec_from_file_location(
            "ledger_without_c", ledger_module.__file__)
        pure = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, pure)  # for @dataclass
        spec.loader.exec_module(pure)
        assert not hasattr(pure, "_kernel")
        for value in self.VALUES:
            assert pure._canonical(value) == self.stdlib(value)
        with pytest.raises(pure.LedgerError, match="not JSON"):
            pure.entry_body(1, 1.0, "register", {"box": {object()}})

    def test_body_and_digest_use_the_one_encoder(self):
        payload = {"entity": "aa", "attrs": {"room": "L10.01", "n": -0.0}}
        assert entry_body(4, 2.5, "register", payload) == \
            self.stdlib([4, 2.5, "register", payload])
        assert snapshot_digest({"b": [1], "a": "\u2603"}) == blake2b(
            self.stdlib({"b": [1], "a": "\u2603"}).encode("utf-8"),
            digest_size=16).hexdigest()

    def test_non_json_leaf_raises_ledger_error(self):
        with pytest.raises(LedgerError, match=r"'query' entry 3.*not JSON"
                           r".*Object of type set is not JSON serializable"):
            entry_body(3, 1.0, "query", {"bound": {"aa"}})

    def test_cyclic_payload_raises_ledger_error(self):
        cycle = {"entity": "aa"}
        cycle["self"] = cycle
        with pytest.raises(LedgerError, match="Circular reference"):
            entry_body(3, 1.0, "register", cycle)

    def test_the_next_encode_after_a_failure_is_clean(self):
        # each failure leaves the containers it was inside; made good, the
        # same containers must encode, not read as a cycle
        box = [object()]
        payload = {"entity": "aa", "box": box}
        with pytest.raises(LedgerError, match="not JSON"):
            entry_body(1, 1.0, "register", payload)
        box[0] = 1
        assert entry_body(1, 1.0, "register", payload) == \
            self.stdlib([1, 1.0, "register", payload])

        cycle = []
        cycle.append(cycle)
        payload = {"entity": "aa", "ring": cycle}
        with pytest.raises(LedgerError, match="Circular reference"):
            entry_body(2, 1.0, "register", payload)
        cycle[0] = "cut"
        assert entry_body(2, 1.0, "register", payload) == \
            self.stdlib([2, 1.0, "register", payload])

    def test_a_failed_seal_leaves_the_chain_sealable(self):
        ledger = build_chain()
        bad = {"query_id": "q", "bound": [object()]}
        ledger.append(4.0, "query", bad)
        with pytest.raises(LedgerError, match="not JSON"):
            ledger.head
        bad["bound"][0] = "aa"
        assert ledger.verify() == 4
        clean = build_chain()
        clean.append(4.0, "query", {"query_id": "q", "bound": ["aa"]})
        assert ledger.head == clean.head


class TestFamilyMerge:
    def _family(self):
        # two ranges' chains; listed in the order that the id tie-break
        # must undo
        upper = ContextLedger("cs:upper")
        lower = ContextLedger("cs:lower")
        upper.append(1.0, "register", {"entity": "aa", "name": "A"})
        lower.append(1.0, "publish",
                     {"key": ["t", "raw", "s"], "event": {"type": "t"},
                      "deliveries": []})
        lower.append(1.5, "replay", {"deliveries": [[1, 1]]})
        upper.append(2.0, "depart", {"entity": "aa", "reason": "x"})
        return upper, lower

    def test_total_order_breaks_ties_by_ledger_id(self):
        upper, lower = self._family()
        merged = merge_entries([upper, lower])
        assert [(e.sim_time, e.ledger_id, e.seq) for e in merged] == \
            [(1.0, "cs:lower", 0), (1.0, "cs:upper", 0),
             (1.5, "cs:lower", 1), (2.0, "cs:upper", 1)]

    def test_one_chain_comes_back_in_seq_order(self):
        ledger = build_chain()
        merged = merge_entries([ledger])
        assert merged == ledger.entries() and merged is not ledger._entries
        assert [e.kind for e in merge_entries([ledger], upto=2.0)] == \
            ["register", "profile-update"]

    def test_upto_applies_to_the_family(self):
        upper, lower = self._family()
        assert [e.kind for e in merge_entries([upper, lower], upto=1.0)] == \
            ["publish", "register"]


class TestArtefact:
    def test_round_trip(self, tmp_path):
        ledger = build_chain()
        path = tmp_path / "ledger.jsonl"
        assert write_ledger_jsonl([ledger], path) == 3
        assert load_ledger_jsonl(path) == \
            [e.to_record() for e in ledger.entries()]

    def test_family_lands_in_merge_order(self, tmp_path):
        upper = ContextLedger("cs:upper")
        lower = ContextLedger("cs:lower")
        upper.append(1.0, "register", {"entity": "aa", "name": "A"})
        lower.append(0.5, "replay", {"deliveries": [[1, 1]]})
        lower.append(1.0, "replay", {"deliveries": [[1, 2]]})
        path = tmp_path / "family.jsonl"
        write_ledger_jsonl([upper, lower], path)
        records = load_ledger_jsonl(path)
        assert [(r["time"], r["ledger"], r["seq"]) for r in records] == \
            [(0.5, "cs:lower", 0), (1.0, "cs:lower", 1), (1.0, "cs:upper", 0)]
        assert all(r["schema"] == LEDGER_SCHEMA and "shard" not in r
                   for r in records)

    def test_duplicate_ledger_id_refused(self, tmp_path):
        # nothing but the id tells two chains apart: two chains under one
        # id would interleave into one unverifiable sequence
        first, second = build_chain(), build_chain()
        path = tmp_path / "twins.jsonl"
        with pytest.raises(LedgerError, match="share a ledger id"):
            write_ledger_jsonl([first, second], path)
        assert not path.exists()

    def test_tampered_chain_is_not_exported(self, tmp_path):
        # the ledger id is not hashed: verify compares it with the chain's,
        # so the writer still refuses an entry moved to another chain
        for tamper in ({"payload": {"entity": "aa",
                                    "attributes": {"room": "vault"}}},
                       {"ledger_id": "cs:other"}):
            ledger = build_chain()
            ledger._entries[1] = dataclasses.replace(ledger.entry(1), **tamper)
            path = tmp_path / "tampered.jsonl"
            with pytest.raises(LedgerError):
                write_ledger_jsonl([ledger], path)
            assert not path.exists()

    def test_export_and_load_hash_each_entry_once(self, tmp_path, hash_calls):
        # the writer checks through verify, which seals the chain as it
        # goes; only the loader, the one check a file gets, hashes again
        path = tmp_path / "ledger.jsonl"
        assert write_ledger_jsonl([build_chain()], path) == 3
        assert len(hash_calls) == 3
        assert len(load_ledger_jsonl(path)) == 3
        assert len(hash_calls) == 6

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
        # /3 an entry per delivered recipient, /4 a shard rank in every
        # hash, /5 a query key on every subscribe, /6 a process-global
        # event seq in every delivery pair: refused by version, never
        # mis-projected or mis-verified
        path, records = self._exported(tmp_path)
        for version in ("1", "2", "3", "4", "5", "6"):
            records[0]["schema"] = f"sci.ledger/{version}"
            self._rewrite(path, records)
            with pytest.raises(LedgerError,
                               match="schema must be 'sci.ledger/7'"):
                load_ledger_jsonl(path)

    def test_bool_seq_rejected(self, tmp_path):
        # True == 1 in Python; the validator must still refuse it
        path, records = self._exported(tmp_path)
        records[1]["seq"] = True
        self._rewrite(path, records)
        with pytest.raises(LedgerError, match="non-negative integer"):
            load_ledger_jsonl(path)

    @pytest.mark.parametrize("bad", [True, "NaN", "Infinity", "2.0", None])
    def test_time_must_be_a_finite_number(self, tmp_path, bad):
        # a bool is an int to isinstance; json reads NaN and Infinity
        # tokens as floats
        path, records = self._exported(tmp_path)
        records[1]["time"] = bad
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        if bad in ("NaN", "Infinity"):
            text = text.replace(f'"time": "{bad}"', f'"time": {bad}')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LedgerError, match="line 2: 'time' must be a "
                                              "finite number"):
            load_ledger_jsonl(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path, records = self._exported(tmp_path)
        records[0]["kind"] = "gossip"
        self._rewrite(path, records)
        with pytest.raises(LedgerError, match="unknown entry kind"):
            load_ledger_jsonl(path)
