"""The canonical observable event log — the substrate's determinism oracle.

An :class:`EventLog` records the two per-host observables the substrate
promises to keep repeatable: message deliveries and owner-attributable
timer firings. Entries deliberately exclude everything that is
interleaving-dependent but behaviourally unobservable — ``msg_id`` values
(a global counter whose numbers depend on allocation order), trace/span
ids, wall-clock — so the log is bit-identical across runs, schedulers and
dispatch engines whenever the *model* behaved identically.

Entry shapes::

    (time, host, "deliver", kind, sender, payload_digest)
    (time, host, "timer",   site)

Payloads are digested (canonical JSON -> blake2b) rather than embedded, so
logs stay comparably small at storm scale while still catching any payload
divergence.

Records append to one list in execution order. :meth:`per_host` buckets
by host and stable-sorts by time — same-instant entries for one host keep
their execution order, which the scheduler's canonical key fixes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

Entry = Tuple[Any, ...]


def payload_digest(payload: Any) -> str:
    """Order-insensitive 64-bit digest of a message payload."""
    blob = json.dumps(payload, sort_keys=True, default=str,
                      separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


class EventLog:
    """Accumulates canonical observables; compares and digests them."""

    def __init__(self):
        self._entries: List[Entry] = []

    # -- recording -----------------------------------------------------------

    def record_delivery(self, host_id: str, time: float, kind: str,
                        sender: str, payload: Any) -> None:
        self._entries.append((time, host_id, "deliver", kind, sender,
                              payload_digest(payload)))

    def record_timer(self, host_id: str, time: float, site: str) -> None:
        self._entries.append((time, host_id, "timer", site))

    # -- reading -------------------------------------------------------------

    def entries(self) -> List[Entry]:
        """All records, in execution order."""
        return list(self._entries)

    def per_host(self) -> Dict[str, List[Entry]]:
        """host -> its observable sequence in ``(time, execution)`` order.

        The sort is stable, so same-instant entries keep the order they
        were recorded in — per host, that is the execution order.
        """
        hosts: Dict[str, List[Entry]] = {}
        for entry in self._entries:
            hosts.setdefault(entry[1], []).append(entry)
        for entries in hosts.values():
            entries.sort(key=lambda entry: entry[0])
        return hosts

    def canonical(self) -> str:
        """The whole log as canonical JSON lines, hosts in sorted order."""
        lines = []
        per_host = self.per_host()
        for host in sorted(per_host):
            for entry in per_host[host]:
                lines.append(json.dumps(list(entry), separators=(",", ":")))
        return "\n".join(lines)

    def digest(self) -> str:
        """Hash-stable fingerprint of the canonical log."""
        return hashlib.blake2b(self.canonical().encode("utf-8"),
                               digest_size=16).hexdigest()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"EventLog(entries={len(self)})"
