"""The Registrar Context Utility.

Section 3.1: "Registrar: Maintains an accurate view of all entities within
the current Range." and "All CE's are registered within a range when they
arrive and deregistered upon departure."

Accuracy under failure is achieved with leases: a registration is kept alive
by heartbeats, one per machine — each
:class:`~repro.server.range_service.RangeService` lists, at a third of the
lease, the components it registered that are still running on its host. A
missed lease means the entity crashed or left without deregistering, and the
Registrar evicts it one and a half renewal periods after the deadline — which
is what ultimately triggers configuration repair. Every deadline is ``now +
lease``, so the **lease book** is in deadline order and needs one timer, at
its head. The ledger records the lifecycle (``register``, ``depart`` with its
reason), not the renewals in between. The records are the range's one
membership book: the Profile Manager serves and patches the profiles they hold
instead of keeping copies.

Beside the records the Registrar keeps the **What index**: the three
selections a query's What clause can make (Section 4.1: a named entity, an
entity type, information fitting a pattern) are answered from name, tag and
offered-type buckets that every write files into and every removal unfiles
from, so profile and advertisement queries read their matches instead of
testing every registration (that scan is the equivalence reference in
``tests/server/reference_scan.py``).

Every registration, re-registration and removal fires exactly one hook
(``on_arrival``, ``on_replacement``, ``on_departure``). The Context Server
patches the Query Resolver's provider index from them, so no write can
reach these books without reaching that index.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.ids import GUID
from repro.entities.advertisement import Advertisement
from repro.entities.profile import Profile
from repro.ledger.ledger import ContextLedger
from repro.net.message import Message
from repro.net.sim import Timer
from repro.net.transport import Network, Process
from repro.query.model import WhatClause

logger = logging.getLogger(__name__)

#: the Range Service renews every ``lease / RENEWALS_PER_LEASE``
RENEWALS_PER_LEASE = 3
#: renewal periods from a deadline to its eviction: the fourth heartbeat after
#: the last one heard is due one period past it, so three lost are survived
EVICTION_GRACE_PERIODS = 1.5


@dataclass
class RegistrationRecord:
    """One registered component."""

    profile: Profile
    kind: str                      # "ce" | "caa" | "infrastructure"
    advertisements: List[Advertisement] = field(default_factory=list)
    host_id: str = ""
    registered_at: float = 0.0
    #: None = infrastructure, no lease; the Registrar stamps any other value
    lease_expiry: Optional[float] = None
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
                 ledger: Optional[ContextLedger] = None):
        super().__init__(guid, host_id, network, name=f"registrar:{range_name}")
        if lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
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
        #: the lease book: every leased record by entity hex, in deadline
        #: (``lease_expiry``) order, since a renewal moves its entry to the
        #: end; and its one timer, never later than the head's eviction time
        self._leases: Dict[str, RegistrationRecord] = {}
        self._grace = EVICTION_GRACE_PERIODS * lease_duration / RENEWALS_PER_LEASE
        self._lease_timer: Optional[Timer] = None
        #: hooks the Context Server installs; every registration,
        #: re-registration and removal fires exactly one of them
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
        metrics = network.obs.metrics
        label = range_name or "-"
        self._renewals_counter = metrics.counter(
            "registrar.lease.renewals").series(range=label)
        self._unknown_counter = metrics.counter(
            "registrar.lease.unknown").series(range=label)

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

    def register_record(self, record: RegistrationRecord) -> RegistrationRecord:
        """Insert a record directly (infrastructure-spawned CEs, handoffs);
        a leased one (any ``lease_expiry`` but None) is stamped ``now + lease``."""
        self._announce(record, self._store(record))
        return record

    def remove(self, entity_hex: str, reason: str, notify_entity: bool = True) -> bool:
        record = self._records.pop(entity_hex, None)
        if record is None:
            return False
        self._leases.pop(entity_hex, None)
        self._unfile(record)
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

        A re-registration is a replace: :meth:`_announce` tells the
        ``on_replacement`` hook, not ``on_arrival``.
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
        self._book_lease(record)
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

    def _book_lease(self, record: RegistrationRecord) -> None:
        """Stamp a leased (re-)registration at the end of the book."""
        self._leases.pop(record.entity_hex, None)
        if record.lease_expiry is not None:
            record.lease_expiry = self.now + self.lease_duration
            self._leases[record.entity_hex] = record
            if self._lease_timer is None:
                self._arm_lease_timer()

    def _arm_lease_timer(self) -> None:
        head = next(iter(self._leases.values()), None)
        self._lease_timer = None if head is None else (
            self.scheduler.schedule_at(head.lease_expiry + self._grace, self._sweep_leases))

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
        if self._lease_timer is not None:
            self._lease_timer.cancel()
        self.detach()

    # -- message protocol --------------------------------------------------------------

    def _handle_register(self, message: Message) -> None:
        fields = message.fields
        sender = self.network.process(message.sender)
        record = RegistrationRecord(
            profile=fields["profile"],
            kind=fields.get("kind", "ce"),
            advertisements=fields.get("advertisements", []),
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
        entity = message.fields.get("entity", message.sender)
        self.remove(entity.hex, "deregistered", notify_entity=False)

    def _handle_heartbeat(self, message: Message) -> None:
        """A Range Service renews every lease it lists, at once.

        Nothing is sent back: renewal is idempotent and the next heartbeat
        comes a third of a lease later, so a lost one needs no retransmission.
        A listed entity this Registrar does not hold thinks it is registered
        (it received this range's ``register-ack``) but was evicted: tell it.
        """
        entities = message.fields["entities"]
        expiry = self.now + self.lease_duration
        renewed = unknown = 0
        for entity_hex in entities:
            record = self._records.get(entity_hex)
            if record is None:
                unknown += 1
                try:
                    address = GUID.from_hex(entity_hex)
                except ValueError:
                    continue  # counted; an id that does not parse names nobody
                self.send(address, "deregistered",
                          {"reason": "not-registered"})
            elif record.lease_expiry is not None:
                self._leases[entity_hex] = self._leases.pop(entity_hex)  # to the end
                record.lease_expiry = expiry
                renewed += 1
        self._renewals_counter.inc(renewed)
        self._unknown_counter.inc(unknown)

    # -- lease expiry -----------------------------------------------------------------

    def _sweep_leases(self) -> None:
        """Evict every due head of the book, then re-arm at the new head (or at
        nothing). The head that armed the timer is due: the sum is the same."""
        leases = self._leases
        while leases:
            record = next(iter(leases.values()))
            if record.lease_expiry + self._grace > self.now:
                break
            self.evictions += 1
            logger.info("%s evicting %s (lease expired)", self.name,
                        record.profile.name)
            self.remove(record.entity_hex, "lease-expired")
        self._arm_lease_timer()
