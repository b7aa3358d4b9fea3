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

Nothing in the program reads the log, so the program carries no hook for
it: :func:`attach` wraps one live network's ``scheduler.schedule_at`` and
``_deliver``, whichever scheduler (production or a reference) it runs on
and whoever built it.
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


def callsite(fn: Callable) -> str:
    """A stable label for a callback: the qualname of the code that runs.

    A bound method is labelled by its function (``Class.method`` of the
    class that defines it), not by the instance's class, so a subclass
    that inherits a timer method logs the same row as its base.
    """
    fn = getattr(fn, "__func__", fn)
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    return name or repr(fn)


def timer_owner(fn: Callable) -> Optional[str]:
    """The host a timer callback is attributable to, or None.

    Resolved through the callback's bound instance: a ``host_id`` attribute
    directly (processes, components), or one level down via ``.owner`` (the
    :class:`repro.net.rpc.RequestManager` pattern). Only owner-resolvable
    timers appear in the canonical event log — anonymous closures and
    infrastructure callbacks are not per-host observables.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return None
    host = getattr(owner, "host_id", None)
    if isinstance(host, str):
        return host
    inner = getattr(owner, "owner", None)
    host = getattr(inner, "host_id", None)
    return host if isinstance(host, str) else None


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


def attach(network, log: Optional[EventLog] = None) -> EventLog:
    """Record ``network``'s observables into ``log`` (a new one if None).

    Wraps the instance's ``scheduler.schedule_at`` and ``_deliver``, so
    what was scheduled or sent before the call is not recorded. A timer
    whose callback has an owner host (:func:`timer_owner`) is recorded as
    its callback starts, after the loop has skipped it if cancelled and
    set the clock to its time; ``schedule``/``call_soon`` go through
    ``schedule_at`` and are recorded too, periodic ticks and deliveries
    are not timers. A delivery is recorded when its recipient is attached
    and its host up, before the recipient sees it.
    """
    log = EventLog() if log is None else log
    scheduler = network.scheduler
    schedule_at = scheduler.schedule_at
    deliver = network._deliver

    def recording_schedule_at(when, fn, *args, **kwargs):
        owner = timer_owner(fn)
        if owner is None:
            return schedule_at(when, fn, *args, **kwargs)
        site = callsite(fn)

        def fire(*args, **kwargs):
            log.record_timer(owner, scheduler.now, site)
            return fn(*args, **kwargs)

        return schedule_at(when, fire, *args, **kwargs)

    def recording_deliver(message, recipient_guid):
        recipient = network.process(recipient_guid)
        if recipient is not None and network.host(recipient.host_id).up:
            log.record_delivery(recipient.host_id, scheduler.now,
                                message.kind, str(message.sender),
                                message.payload)
        deliver(message, recipient_guid)

    scheduler.schedule_at = recording_schedule_at
    network._deliver = recording_deliver
    return log
