"""The canonical observable event log — the substrate's determinism oracle.

An :class:`EventLog` records the two per-host observables the partitioned
substrate promises to keep invariant: message deliveries and owner-
attributable timer firings. Entries deliberately exclude everything that is
interleaving-dependent but behaviourally unobservable — ``msg_id`` values
(a global counter whose numbers depend on allocation order), trace/span
ids, wall-clock — so the log is bit-identical across partition counts
whenever the *model* behaved identically.

Entry shapes::

    (time, host, "deliver", kind, sender, payload_digest)
    (time, host, "timer",   site)

Payloads are digested (canonical JSON -> blake2b) rather than embedded, so
logs stay comparably small at storm scale while still catching any payload
divergence.

The log is buffer-agnostic: standalone it appends to one internal list;
bound to a :class:`~repro.net.sim.Scheduler` (what a
:class:`~repro.net.transport.Network` does) it writes into per-lane buffers
(each lane appends only to its own) and concatenates them
control-lane-first at read time. :meth:`per_host` then buckets by host and
stable-sorts by time — same-instant entries for one host keep their
execution order, which the substrate guarantees is partition-invariant.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

Entry = Tuple[Any, ...]


def payload_digest(payload: Any) -> str:
    """Order-insensitive 64-bit digest of a message payload."""
    blob = json.dumps(payload, sort_keys=True, default=str,
                      separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


class EventLog:
    """Accumulates canonical observables; compares and digests them."""

    def __init__(self):
        self._default: List[Entry] = []
        self._sink: Optional[Callable[[], List[Entry]]] = None
        self._buffers: Optional[Callable[[], List[List[Entry]]]] = None

    def bind(self, scheduler) -> None:
        """Route records through ``scheduler``'s per-lane buffers (duck-
        typed: ``current_log_buffer()`` / ``log_buffers()``)."""
        self._sink = scheduler.current_log_buffer
        self._buffers = scheduler.log_buffers

    # -- recording -----------------------------------------------------------

    def record_delivery(self, host_id: str, time: float, kind: str,
                        sender: str, payload: Any) -> None:
        buffer = self._default if self._sink is None else self._sink()
        buffer.append((time, host_id, "deliver", kind, sender,
                       payload_digest(payload)))

    def record_timer(self, host_id: str, time: float, site: str) -> None:
        buffer = self._default if self._sink is None else self._sink()
        buffer.append((time, host_id, "timer", site))

    # -- reading -------------------------------------------------------------

    def entries(self) -> List[Entry]:
        """All records, concatenated in canonical buffer order."""
        if self._buffers is None:
            return list(self._default)
        out: List[Entry] = []
        for buffer in self._buffers():
            out.extend(buffer)
        return out

    def per_host(self) -> Dict[str, List[Entry]]:
        """host -> its observable sequence in ``(time, execution)`` order.

        The sort is stable, so same-instant entries keep the order they
        were recorded in — per host, that order is the substrate's
        partition-invariant execution order.
        """
        hosts: Dict[str, List[Entry]] = {}
        for entry in self.entries():
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
        return len(self.entries())

    def __repr__(self) -> str:
        return f"EventLog(entries={len(self)})"
