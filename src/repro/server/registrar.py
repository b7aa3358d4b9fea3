"""The Registrar Context Utility.

Section 3.1: "Registrar: Maintains an accurate view of all entities within
the current Range." and "All CE's are registered within a range when they
arrive and deregistered upon departure."

Accuracy under failure is achieved with leases: a registration is kept alive
by heartbeats, one per machine — each
:class:`~repro.server.range_service.RangeService` lists, at a third of the
lease, the components it registered that are still running on its host. A
missed lease means the entity crashed or left without deregistering, and the
Registrar evicts it — which is what ultimately triggers configuration
repair. The ledger records the lifecycle (``register``, ``depart`` with its
reason), not the renewals in between. The records are the range's one
membership book: the Profile Manager serves and patches the profiles they
hold instead of keeping copies.

Beside the records the Registrar keeps the **What index**: the three
selections a query's What clause can make (Section 4.1: a named entity, an
entity type, information fitting a pattern) are answered from name, tag and
offered-type buckets that every write files into and every removal unfiles
from, so profile and advertisement queries read their matches instead of
testing every registration (that scan is the equivalence reference in
``tests/server/reference_scan.py``).
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.ids import GUID
from repro.entities.advertisement import Advertisement
from repro.entities.profile import Profile
from repro.ledger.ledger import ContextLedger
from repro.net.message import Message
from repro.net.transport import Network, Process
from repro.query.model import WhatClause

logger = logging.getLogger(__name__)


@dataclass
class RegistrationRecord:
    """One registered component."""

    profile: Profile
    kind: str                      # "ce" | "caa" | "infrastructure"
    advertisements: List[Advertisement] = field(default_factory=list)
    host_id: str = ""
    registered_at: float = 0.0
    lease_expiry: Optional[float] = None   # None = infrastructure, no lease
    #: set by the Registrar that holds the record: its place in registration
    #: order, and the entity-type tags it is filed under
    order: int = field(default=0, repr=False, compare=False)
    tags: Tuple[str, ...] = field(default=(), repr=False, compare=False)

    @property
    def entity_hex(self) -> str:
        return self.profile.entity_id.hex

    def entity_type_tags(self) -> Tuple[str, ...]:
        """What an ``entity-type`` What clause may call this component."""
        profile = self.profile
        tags: Set[str] = {profile.entity_class.value}
        device = profile.attributes.get("device")
        if isinstance(device, str):
            tags.add(device)
        for ad in self.advertisements:
            tags.add(ad.service_name)
            if ad.service_name.endswith("-service"):
                tags.add(ad.service_name[:-len("-service")])
        return tuple(tags)


_Bucket = Dict[str, RegistrationRecord]


def _name_then_order(record: RegistrationRecord) -> Tuple[str, int]:
    return record.profile.name, record.order


class Registrar(Process):
    """Lease-based membership for one range."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str,
                 context_server: GUID, event_mediator: GUID,
                 lease_duration: float = 30.0,
                 sweep_interval: float = 5.0,
                 ledger: Optional[ContextLedger] = None):
        super().__init__(guid, host_id, network, name=f"registrar:{range_name}")
        if lease_duration <= 0 or sweep_interval <= 0:
            raise ValueError("lease and sweep intervals must be positive")
        self.range_name = range_name
        self.context_server = context_server
        self.event_mediator = event_mediator
        self.lease_duration = lease_duration
        self._records: Dict[str, RegistrationRecord] = {}
        #: the What index: key -> {entity hex: record}, buckets made on first
        #: filing and dropped when emptied
        self._by_name: Dict[str, _Bucket] = {}
        self._by_tag: Dict[str, _Bucket] = {}
        self._by_offered_type: Dict[str, _Bucket] = {}
        self._order = itertools.count()
        #: lazy-deletion expiry heap (deadline, seq, entity_hex) — the same
        #: trick the Scheduler uses for cancelled timers. Invariant: every
        #: leased record has a heap entry whose deadline equals its current
        #: ``lease_expiry``; renewals push a new entry and the superseded one
        #: is discarded when popped (its deadline no longer matches).
        self._expiry_heap: List[Tuple[float, int, str]] = []
        self._heap_seq = itertools.count()
        #: bumped on every membership change; feeds resolver index invalidation
        self.version = 0
        #: hooks the Context Server installs
        self.on_arrival: Callable[[RegistrationRecord], None] = lambda record: None
        self.on_departure: Callable[[RegistrationRecord, str], None] = (
            lambda record, reason: None)
        self.on_replacement: Callable[
            [RegistrationRecord, RegistrationRecord], None] = (
                lambda previous, record: None)
        #: the range's context-ledger chain, or a private one
        self.ledger = (ledger if ledger is not None else ContextLedger(
            self.name, metrics=network.obs.metrics, range_name=range_name))
        self.registrations = 0
        self.evictions = 0
        self.expiry_pops = 0
        metrics = network.obs.metrics
        label = range_name or "-"
        self._expiry_pops_counter = metrics.counter(
            "registrar.expiry.pops").series(range=label)
        self._renewals_counter = metrics.counter(
            "registrar.lease.renewals").series(range=label)
        self._unknown_counter = metrics.counter(
            "registrar.lease.unknown").series(range=label)
        self._sweeper = self.scheduler.schedule_periodic(sweep_interval,
                                                         self._sweep_leases)

    # -- direct API -----------------------------------------------------------------

    def record(self, entity_hex: str) -> Optional[RegistrationRecord]:
        return self._records.get(entity_hex)

    def records(self) -> List[RegistrationRecord]:
        return list(self._records.values())

    def registered(self, entity_hex: str) -> bool:
        return entity_hex in self._records

    def population(self) -> int:
        return len(self._records)

    def named(self, name: str) -> Optional[RegistrationRecord]:
        """The earliest-registered record of that name (``matching`` order)."""
        bucket = self._by_name.get(name)
        return min(bucket.values(), key=_name_then_order) if bucket else None

    def matching(self, what: WhatClause) -> List[RegistrationRecord]:
        """Records a What clause selects, by name then registration order.

        A re-registered entity keeps its place among equal names; one that
        left and came back goes last.
        """
        if what.kind == "named":
            found = dict(self._by_name.get(what.value, ()))
            by_hex = self._records.get(what.value)
            if by_hex is not None:
                found[what.value] = by_hex
        elif what.kind == "entity-type":
            found = self._by_tag.get(what.value, {})
        else:  # pattern: does the profile output the wanted type name?
            found = self._by_offered_type.get(what.pattern.type_name, {})
        return sorted(found.values(), key=_name_then_order)

    def register_record(self, record: RegistrationRecord,
                        notify: bool = True) -> RegistrationRecord:
        """Insert a record directly (infrastructure-spawned CEs, handoffs)."""
        previous = self._store(record)
        if notify:
            self._announce(record, previous)
        return record

    def remove(self, entity_hex: str, reason: str, notify_entity: bool = True) -> bool:
        record = self._records.pop(entity_hex, None)
        if record is None:
            return False
        # any heap entries for this record become stale and are skipped on pop
        self._unfile(record)
        self.version += 1
        self.ledger.append(self.now, "depart",
                            {"entity": entity_hex, "reason": reason})
        if notify_entity:
            self.send(record.profile.entity_id, "deregistered", {"reason": reason})
        self.on_departure(record, reason)
        return True

    def retag(self, entity_hex: str) -> None:
        """Re-file a record whose ``device`` attribute changed."""
        record = self._records.get(entity_hex)
        if record is not None:
            self._unfile(record)
            self._file(record)

    # -- the one write path -----------------------------------------------------

    def _store(self, record: RegistrationRecord) -> Optional[RegistrationRecord]:
        """File a (re-)registration; returns the record it replaced, if any.

        One version bump either way: a re-registration is a replace, and
        whoever is told about it applies remove+add under that one bump.
        """
        previous = self._records.get(record.entity_hex)
        if previous is None:
            record.order = next(self._order)
        else:
            self._unfile(previous)
            record.order = previous.order
        self._records[record.entity_hex] = record
        self._file(record)
        self.registrations += 1
        self.version += 1
        self._track_lease(record)
        self._log_register(record)
        return previous

    def _announce(self, record: RegistrationRecord,
                  previous: Optional[RegistrationRecord]) -> None:
        if previous is None:
            self.on_arrival(record)
        else:
            self.on_replacement(previous, record)

    def _filings(self, record: RegistrationRecord
                 ) -> Iterator[Tuple[Dict[str, _Bucket], str]]:
        yield self._by_name, record.profile.name
        for tag in record.tags:
            yield self._by_tag, tag
        for output in record.profile.outputs:
            yield self._by_offered_type, output.type_name

    def _file(self, record: RegistrationRecord) -> None:
        record.tags = record.entity_type_tags()
        entity_hex = record.entity_hex
        for index, key in self._filings(record):
            bucket = index.get(key)
            if bucket is None:
                bucket = index[key] = {}
            bucket[entity_hex] = record

    def _unfile(self, record: RegistrationRecord) -> None:
        entity_hex = record.entity_hex
        for index, key in self._filings(record):
            bucket = index.get(key)
            if bucket is not None and bucket.pop(entity_hex, None) is not None:
                if not bucket:
                    del index[key]

    def _track_lease(self, record: RegistrationRecord) -> None:
        if record.lease_expiry is not None:
            heapq.heappush(self._expiry_heap,
                           (record.lease_expiry, next(self._heap_seq),
                            record.entity_hex))

    def _log_register(self, record: RegistrationRecord) -> None:
        """One ledger entry per (re-)registration, profile frozen at entry."""
        self.ledger.append(self.now, "register", {
            "entity": record.entity_hex,
            "name": record.profile.name,
            "kind": record.kind,
            "host": record.host_id,
            "registered_at": record.registered_at,
            "profile": record.profile.to_wire(),
            "advertisements": [ad.to_wire() for ad in record.advertisements],
        })

    def shutdown(self) -> None:
        self._sweeper.cancel()
        self.detach()

    # -- message protocol --------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.kind == "register":
            self._handle_register(message)
        elif message.kind == "deregister":
            self._handle_deregister(message)
        elif message.kind == "heartbeat":
            self._handle_heartbeat(message)
        else:
            logger.debug("%s ignoring %s", self.name, message)

    def _handle_register(self, message: Message) -> None:
        try:
            profile = Profile.from_wire(message.payload["profile"])
            advertisements = [Advertisement.from_wire(item)
                              for item in message.payload.get("advertisements", [])]
        except (KeyError, TypeError, ValueError) as exc:
            self.reply(message, "register-ack", {"ok": False, "error": str(exc)})
            return
        sender = self.network.process(message.sender)
        record = RegistrationRecord(
            profile=profile,
            kind=message.payload.get("kind", "ce"),
            advertisements=advertisements,
            host_id=sender.host_id if sender else "",
            registered_at=self.now,
            lease_expiry=self.now + self.lease_duration,
        )
        previous = self._store(record)
        self.reply(message, "register-ack", {
            "ok": True,
            "range": self.range_name,
            "context_server": self.context_server.hex,
            "event_mediator": self.event_mediator.hex,
            "lease": self.lease_duration,
        })
        self._announce(record, previous)

    def _handle_deregister(self, message: Message) -> None:
        """A departing component says goodbye. It is leaving (or has left)
        and waits for no answer, so none is sent."""
        entity_hex = message.payload.get("entity", message.sender.hex)
        if not isinstance(entity_hex, str):
            logger.info("%s: dropping malformed deregister %r", self.name,
                        message.payload)
            return
        self.remove(entity_hex, "deregistered", notify_entity=False)

    def _handle_heartbeat(self, message: Message) -> None:
        """A Range Service renews every lease it lists, at once.

        Nothing is sent back: renewal is idempotent and the next heartbeat
        comes a third of a lease later, so a lost one needs no retransmission.
        A listed entity this Registrar does not hold thinks it is registered
        (it received this range's ``register-ack``) but was evicted: tell it.
        """
        entities = message.payload.get("entities", ())
        if not isinstance(entities, (list, tuple)):
            logger.info("%s: dropping malformed heartbeat %r", self.name,
                        message.payload)
            return
        expiry = self.now + self.lease_duration
        renewed = unknown = 0
        for entity_hex in entities:
            try:
                record = self._records.get(entity_hex)
            except TypeError:  # an unhashable id names nobody
                record = None
            if record is None:
                unknown += 1
                try:
                    address = GUID.from_hex(entity_hex)
                except (TypeError, ValueError):
                    continue  # counted; an id that does not parse names nobody
                self.send(address, "deregistered",
                          {"reason": "not-registered"})
            elif record.lease_expiry is not None:
                record.lease_expiry = expiry
                self._track_lease(record)
                renewed += 1
        self._renewals_counter.inc(renewed)
        self._unknown_counter.inc(unknown)

    # -- lease sweeping -----------------------------------------------------------------

    def _sweep_leases(self) -> None:
        """Pop due heap entries instead of scanning every registration.

        An entry is authoritative only if its deadline still equals the
        record's current ``lease_expiry``; renewals and re-registrations
        leave superseded entries behind, which cost one pop each (lazy
        deletion) and are discarded here. A record with a future lease is
        never evicted because only entries with ``deadline < now`` are
        popped, and the freshest entry's deadline *is* the record's expiry.
        """
        now = self.now
        popped = 0
        while self._expiry_heap and self._expiry_heap[0][0] < now:
            deadline, _, entity_hex = heapq.heappop(self._expiry_heap)
            popped += 1
            record = self._records.get(entity_hex)
            if record is None or record.lease_expiry is None:
                continue  # departed or promoted to infrastructure; stale entry
            if record.lease_expiry != deadline:
                continue  # renewed since; the fresher entry covers it
            self.evictions += 1
            logger.info("%s evicting %s (lease expired)", self.name,
                        record.profile.name)
            self.remove(record.entity_hex, "lease-expired")
        self.expiry_pops += popped
        self._expiry_pops_counter.inc(popped)
