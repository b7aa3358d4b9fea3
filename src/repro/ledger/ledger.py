"""Hash-chained append-only ledgers and their JSONL artefact format.

Modelled on the Brain_Garden HO2 Context Authority spec (SNIPPETS.md
snippet 1): immutable append-only source ledgers, hash-stable entry
references ``(ledger_id, entry_id, entry_hash)``, and the determinism
contract *same inputs ⇒ identical projection*.

One :class:`ContextLedger` is one chain. A Context Server keeps one per
range, appended to by its Registrar, Profile Manager, Event Mediator and
query lifecycle. Several chains (every range of a deployment, say) merge
into one view ordered by ``(sim_time, ledger_id, seq)``; verification is
always per-chain, and a chain is named by its ledger id.

The hashed body is ``[seq, sim_time, kind, payload]``.

Payloads must be JSON-serialisable: the hash is computed over the
canonical JSON encoding, so the chain commits to exactly what the JSONL
export round-trips. Every id in a payload is minted by its owner inside
the deployment, so one plan run twice in one process ends on one head.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricsRegistry

#: artefact format marker; bump on incompatible changes (any other version is
#: refused: /1 files carry lease renewals, /2 files a second, Profile Manager
#: copy of every arrival and departure, and /3 files one entry per delivered
#: recipient, kinds the projector has no rule for; /4 files hash the rank
#: of a since-deleted mediator shard into every body and name it on every
#: line, stamp each ``publish`` with the seq that first retained its key,
#: and log an immediate query as two entries, a routing step + its outcome;
#: /5 ``subscribe`` entries carry a ``query`` key the projector no longer
#: reads; /6 ``publish``/``replay`` pairs carry a process-global event seq
#: the event wire no longer has, /7 the subscription's seq of the delivery)
LEDGER_SCHEMA = "sci.ledger/7"

#: the chain anchor every chain starts from
GENESIS_HASH = "0" * 32

#: every kind a ledger entry may carry (closed set; the validator and the
#: replay projector both dispatch on it)
ENTRY_KINDS = (
    "register",        # registrar: a component (re-)registered
    "depart",          # registrar: deregistration / eviction / expulsion
    "profile-update",  # profile manager: attribute patch applied
    "subscribe",       # mediator: subscription established
    "unsubscribe",     # mediator: subscription torn down
    "publish",         # mediator: one fan-out: entry retained, subs served
    "replay",          # mediator: retained events replayed to one sub
    "retain-evict",    # mediator: retained entry dropped by the cap
    "query",           # context server: a routing decision or its resolution
)


class LedgerError(ValueError):
    """A broken chain, an invalid entry, or a malformed JSONL artefact."""


#: the canonical JSON encoding the hash commits to. No ``default``: a value
#: without a JSON form cannot be carried by the artefact, and hashing its
#: ``repr`` would tie the chain to one process's set order and addresses
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def entry_body(seq: int, sim_time: float, kind: str,
               payload: Dict[str, Any]) -> str:
    """The canonical bytes an entry hash commits to and an audit re-hashes."""
    try:
        return _canonical([seq, sim_time, kind, payload])
    except (TypeError, ValueError) as exc:
        raise LedgerError(f"{kind!r} entry {seq}: payload is "
                          f"not JSON ({exc})") from exc


def entry_hash(prev_hash: str, seq: int, sim_time: float, kind: str,
               payload: Dict[str, Any]) -> str:
    """blake2b over the previous hash plus the entry's canonical body."""
    body = entry_body(seq, sim_time, kind, payload).encode("utf-8")
    return blake2b(prev_hash.encode("utf-8") + body, digest_size=16).hexdigest()


@dataclass(frozen=True)
class LedgerEntry:
    """One immutable, hash-chained record."""

    ledger_id: str
    seq: int
    sim_time: float
    kind: str
    payload: Dict[str, Any]
    prev_hash: str
    entry_hash: str

    @property
    def entry_id(self) -> str:
        """Stable position within the ledger: its seq."""
        return str(self.seq)

    def ref(self) -> Dict[str, str]:
        """A hash-stable reference another document can safely hold."""
        return {"ledger": self.ledger_id, "entry": self.entry_id,
                "hash": self.entry_hash}

    def to_record(self) -> Dict[str, Any]:
        """The JSONL line form (see :func:`write_ledger_jsonl`)."""
        return {
            "schema": LEDGER_SCHEMA,
            "ledger": self.ledger_id,
            "seq": self.seq,
            "time": self.sim_time,
            "kind": self.kind,
            "payload": self.payload,
            "prev": self.prev_hash,
            "hash": self.entry_hash,
        }


class ContextLedger:
    """One append-only chain of :class:`LedgerEntry` records.

    Appends are group-committed: :meth:`append` records the entry body in
    O(1) and the hash chain is sealed in batch on the first read
    (:attr:`head`, :meth:`entries`, :meth:`verify`). The chain is a pure
    function of the body sequence, so where the sealing points fall never
    changes a single hash — it only keeps the canonical-JSON + blake2b
    work off the event-dispatch hot path. :meth:`verify` hashes each entry
    once per call and never extends a chain whose sealed prefix is broken.
    """

    def __init__(self, ledger_id: str, metrics=None, range_name: str = ""):
        self.ledger_id = ledger_id
        self.range_name = range_name
        self._entries: List[LedgerEntry] = []
        #: appended but not yet hashed: (sim_time, kind, payload) bodies
        self._unsealed: Deque[tuple] = deque()
        metrics = MetricsRegistry() if metrics is None else metrics
        appends = metrics.counter("cs.ledger.appends")
        label = range_name or "-"
        #: entry kind -> its appends series; a kind not here is refused
        self._appends = {kind: appends.series(range=label, kind=kind)
                         for kind in ENTRY_KINDS}

    # -- append path ----------------------------------------------------------

    @property
    def head(self) -> str:
        self._seal()
        return self._entries[-1].entry_hash if self._entries else GENESIS_HASH

    def __len__(self) -> int:
        return len(self._entries) + len(self._unsealed)

    def append(self, sim_time: float, kind: str,
               payload: Dict[str, Any]) -> None:
        appends = self._appends.get(kind)
        if appends is None:
            raise LedgerError(f"unknown entry kind {kind!r}")
        self._unsealed.append((sim_time, kind, payload))
        appends.inc()

    def _seal(self) -> None:
        """Extend the hash chain over every body appended since last seal."""
        prev = self._entries[-1].entry_hash if self._entries else GENESIS_HASH
        while self._unsealed:
            # popped only once hashed: a body that cannot be stays at the
            # front and fails this read and every later one
            sim_time, kind, payload = self._unsealed[0]
            seq = len(self._entries)
            entry = LedgerEntry(
                ledger_id=self.ledger_id,
                seq=seq,
                sim_time=sim_time,
                kind=kind,
                payload=payload,
                prev_hash=prev,
                entry_hash=entry_hash(prev, seq, sim_time, kind, payload),
            )
            self._entries.append(entry)
            prev = entry.entry_hash
            self._unsealed.popleft()

    # -- read path ------------------------------------------------------------

    def entries(self, upto: Optional[float] = None) -> List[LedgerEntry]:
        """This chain's entries, optionally only those with time <= upto."""
        self._seal()
        if upto is None:
            return list(self._entries)
        return [entry for entry in self._entries if entry.sim_time <= upto]

    def entry(self, seq: int) -> LedgerEntry:
        self._seal()
        return self._entries[seq]

    def verify(self) -> int:
        """Re-check every sealed entry, then seal the tail; returns the length.

        Each entry is hashed once per call: the sealed prefix is recomputed
        from genesis, and the unsealed tail is hashed as it is sealed onto
        the head just checked. A broken prefix raises before the tail is
        sealed, so a broken chain is never extended.
        """
        prev = GENESIS_HASH
        for index, entry in enumerate(self._entries):
            if entry.seq != index or entry.ledger_id != self.ledger_id:
                raise LedgerError(f"{self.ledger_id}: entry {index} carries "
                                  f"seq {entry.seq} of {entry.ledger_id}")
            if entry.prev_hash != prev:
                raise LedgerError(
                    f"{self.ledger_id}: entry {index} prev-hash mismatch")
            expected = entry_hash(prev, entry.seq, entry.sim_time,
                                  entry.kind, entry.payload)
            if entry.entry_hash != expected:
                raise LedgerError(f"{self.ledger_id}: entry {index} "
                                  f"hash mismatch (tampered payload?)")
            prev = entry.entry_hash
        self._seal()
        return len(self._entries)


def merge_entries(ledgers: Iterable[ContextLedger],
                  upto: Optional[float] = None) -> List[LedgerEntry]:
    """The total order over several chains: ``(sim_time, ledger_id, seq)``.

    Chains are append-ordered in both time and seq, so this sort is a
    stable k-way merge; ties at one sim-time break by ledger id, then seq.
    """
    merged: List[LedgerEntry] = []
    for ledger in ledgers:
        merged.extend(ledger.entries(upto))
    merged.sort(key=lambda entry: (entry.sim_time, entry.ledger_id,
                                   entry.seq))
    return merged


# -- JSONL artefact -----------------------------------------------------------


def write_ledger_jsonl(ledgers: Iterable[ContextLedger],
                       path: Union[str, Path]) -> int:
    """Write one or more chains as one validated JSONL artefact.

    One line per entry, in :func:`merge_entries` order. Returns the line count.
    Two chains under one ledger id are refused: the id names the chain.
    Every chain is checked through :meth:`ContextLedger.verify` first.
    """
    ledgers = list(ledgers)
    if len({ledger.ledger_id for ledger in ledgers}) != len(ledgers):
        raise LedgerError("two chains share a ledger id")
    for ledger in ledgers:
        ledger.verify()
    records = [entry.to_record() for entry in merge_entries(ledgers)]
    for index, record in enumerate(records):
        _validate_record(f"line {index + 1}", record)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def load_ledger_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a ledger artefact back, re-validating chains before returning."""
    records = []
    for number, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        _validate_record(f"line {number}", record)
        records.append(record)
    _verify_record_chains(records)
    return records


def _fail(where: str, problem: str) -> None:
    raise LedgerError(f"{where}: {problem}")


def _validate_record(where: str, record: Any) -> None:
    """Structural validation of one JSONL line (hand-rolled, like obs)."""
    if not isinstance(record, dict):
        _fail(where, f"record must be an object, got {type(record).__name__}")
    if record.get("schema") != LEDGER_SCHEMA:
        _fail(where, f"schema must be {LEDGER_SCHEMA!r}, "
              f"got {record.get('schema')!r}")
    if not isinstance(record.get("ledger"), str) or not record["ledger"]:
        _fail(where, "missing non-empty 'ledger' id")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        _fail(where, "'seq' must be a non-negative integer")
    if not isinstance(record.get("time"), (int, float)):
        _fail(where, "'time' must be a number")
    if record.get("kind") not in ENTRY_KINDS:
        _fail(where, f"unknown entry kind {record.get('kind')!r}")
    if not isinstance(record.get("payload"), dict):
        _fail(where, "'payload' must be an object")
    for field in ("prev", "hash"):
        if not isinstance(record.get(field), str) or not record[field]:
            _fail(where, f"missing non-empty {field!r}")


def _verify_record_chains(records: List[Dict[str, Any]]) -> None:
    """Recompute every per-ledger chain across loaded lines."""
    heads: Dict[str, tuple] = {}  # ledger id -> (next seq, head hash)
    for record in records:
        key = record["ledger"]
        next_seq, head = heads.get(key, (0, GENESIS_HASH))
        where = f"{key} seq {record['seq']}"
        if record["seq"] != next_seq:
            _fail(where, f"non-contiguous seq (expected {next_seq})")
        if record["prev"] != head:
            _fail(where, "prev-hash does not match the chain head")
        expected = entry_hash(head, record["seq"], record["time"],
                              record["kind"], record["payload"])
        if record["hash"] != expected:
            _fail(where, "entry hash does not recompute")
        heads[key] = (next_seq + 1, record["hash"])
