"""Sharded Event Mediator — K worker shards behind one router facade.

The single sequential Event Mediator is the dispatch ceiling of a range.
This module partitions it:

* **Ownership.** Each ``(type_name, subject)`` key is owned by exactly one
  :class:`MediatorShard`, decided by a consistent-hash
  :class:`~repro.server.shard.ShardRing`. Every publish is routed to the
  owner shard, which stores the retained entry and fans out to the
  *exact* subscriptions (filters constraining both type and subject) that
  share the key — the overwhelming majority in an entity-tracking
  workload, so shards divide both state and matching work ~evenly.
* **Routed subscriptions.** Filters that cannot be pinned to one key
  (type-only monitors, subject-only, source-only, residual ``Or``/``Not``/
  attribute filters) and all bridges live on the *router*
  (:class:`ShardedEventMediator`), which inherits the plain mediator's
  delivery machinery wholesale — one-time arbitration, reliable
  sequencing, bridge loop-suppression all behave exactly as unsharded.
  Shards forward an event to the router only when a shared *interest
  summary* says some routed entry may match, so the router is not a
  fan-in bottleneck for pure point-to-point traffic.
* **Rebalance.** ``add_shard``/``remove_shard`` migrate live
  ``Subscription`` objects (sub_id, seq and delivery count preserved — no
  loss, no duplication) and retained entries to their new owners.
  Publishes already in flight to a moved key are *handed off* by the
  stale shard to the current owner. Retired shards stay attached to
  drain exactly that in-flight traffic.

Router and shards each own an operator graph; a shard-homed plan is pinned
to one ``(type, subject)`` key, so its stateful nodes (windows, joins,
selectors) live on exactly one shard and move with the subscription on
rebalance.

Equivalence (proven by ``tests/shard``, ``tests/opgraph`` and the Hypothesis
property): for a fixed seed, per-subscription delivery logs are
entry-for-entry identical to a single unsharded mediator and to the linear
reference scan, under the harness's FIFO deterministic latency and
seq-ordered publishes. Retained replay across shards is merged on the
first-retained seq stamp (see ``EventMediator._retained_first``), which
reproduces the single store's insertion order under the same assumptions.

Ownership contract: ring, shard table and interest summaries are shared
objects mutated only by control-plane calls (subscribe/unsubscribe/bridge/
rebalance) on the router. Those calls run from external/control context
(a quiesced scheduler, or a control event) or in the router's own
handlers; shards only read them.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

from repro.core.ids import GUID, GuidFactory
from repro.net.message import Message
from repro.net.transport import Network
from repro.events.event import ContextEvent
from repro.events.dispatch_index import FilterConstraints, analyse_filter
from repro.events.filters import EventFilter
from repro.events.mediator import (
    DEFAULT_ACK_TIMEOUT,
    DEFAULT_DELIVERY_RETRIES,
    DEFAULT_RETAINED_CAP,
    Bridge,
    EventMediator,
)
from repro.events.subscription import Subscription
from repro.query.opgraph.compile import analyse_opspec, compile_query
from repro.server.shard import ShardRing

logger = logging.getLogger(__name__)


def _in_first_retained_order(entries: List[tuple]) -> List[ContextEvent]:
    """Events of ``(first_seq, key, event)`` entries, oldest stamp first."""
    entries.sort(key=lambda entry: entry[0])
    return [event for _, _, event in entries]


def _bump(store: Dict, key, delta: int) -> None:
    count = store.get(key, 0) + delta
    if count > 0:
        store[key] = count
    else:
        store.pop(key, None)


class _InterestSet:
    """Counted summary of routed-entry constraints, shared with shards.

    Sound over-approximation: an event that could match any routed
    subscription (or bridge) necessarily hits one of these buckets, because
    the buckets are derived from the same
    :func:`~repro.events.dispatch_index.analyse_filter` facts the dispatch
    index buckets on. False positives just cost one forward.
    """

    __slots__ = ("types", "subjects", "sources", "residual")

    def __init__(self):
        self.types: Dict[str, int] = {}
        self.subjects: Dict[object, int] = {}
        self.sources: Dict[str, int] = {}
        self.residual = 0

    def add(self, constraints: FilterConstraints) -> None:
        self._apply(constraints, 1)

    def remove(self, constraints: FilterConstraints) -> None:
        self._apply(constraints, -1)

    def _apply(self, constraints: FilterConstraints, delta: int) -> None:
        # mirror DispatchIndex bucket priority: most selective axis wins
        if constraints.type_name is not None:
            _bump(self.types, constraints.type_name, delta)
        elif constraints.has_subject:
            _bump(self.subjects, constraints.subject, delta)
        elif constraints.source_hex is not None:
            _bump(self.sources, constraints.source_hex, delta)
        else:
            self.residual += delta

    def matches(self, event: ContextEvent) -> bool:
        if self.residual:
            return True
        if self.types and event.type_name in self.types:
            return True
        if self.subjects:
            try:
                if event.subject in self.subjects:
                    return True
            except TypeError:
                pass
        return bool(self.sources) and event.source.hex in self.sources


class MediatorShard(EventMediator):
    """One worker shard: a full mediator over its owned slice of keys."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str, shard_id: int, router_guid: GUID,
                 ring: ShardRing, shard_guids: Dict[int, GUID],
                 sub_interest: _InterestSet, bridge_interest: _InterestSet,
                 cs_label: str,
                 retained_cap: int = DEFAULT_RETAINED_CAP,
                 reliable: bool = False,
                 ledger=None):
        super().__init__(guid, host_id, network, range_name,
                         retained_cap=retained_cap, reliable=reliable,
                         ledger=ledger)
        self.shard_id = shard_id
        self._router_guid = router_guid
        self._ring = ring
        self._shard_guids = shard_guids
        self._sub_interest = sub_interest
        self._bridge_interest = bridge_interest
        self._cs_label = cs_label
        metrics = network.obs.metrics
        self._forwarded_counter = metrics.counter(
            "cs.shard.forwarded",
            "events forwarded shard -> router for routed subscriptions",
            labels=("range",))
        self._handoffs_counter = metrics.counter(
            "cs.shard.handoffs",
            "stale-ownership publishes re-forwarded after a rebalance",
            labels=("range",))

    def _fan_out(self, event: ContextEvent, bridged: bool) -> int:
        owner = self._ring.owner((event.type_name, event.subject))
        if owner != self.shard_id:
            # a rebalance moved this key while the publish was in flight;
            # hand the event to the current owner instead of misdelivering
            self._handoffs_counter.inc(range=self._cs_label)
            if self.reliable:
                payload = {"event": event.to_wire(), "bridged": bridged}
                self.requests.request(self._shard_guids[owner], "publish",
                                      payload)
            else:
                payload = {"event": event.to_wire(), "bridged": bridged,
                           "ack": False}
                self.send(self._shard_guids[owner], "publish", payload)
            return 0
        delivered = super()._fan_out(event, bridged)
        if (self._sub_interest.matches(event)
                or (not bridged and self._bridge_interest.matches(event))):
            self._forwarded_counter.inc(range=self._cs_label)
            payload = {"event": event.to_wire(), "bridged": bridged}
            if self.reliable:
                self.requests.request(self._router_guid, "shard-event",
                                      payload)
            else:
                self.send(self._router_guid, "shard-event", payload)
        return delivered

    def _replay_events(self, type_name: Optional[str]) -> List[ContextEvent]:
        """Replay in first-retained order, not local store order.

        After a migration, adopted entries sit at the tail of the local
        store regardless of age; sorting on the first-retained seq stamp
        restores the order a never-rebalanced store would replay in.
        """
        return _in_first_retained_order(self.retained_entries(type_name))


class ShardedEventMediator(EventMediator):
    """Router facade: same API and wire protocol as :class:`EventMediator`.

    Drop-in for the Context Server: ``add_subscription``, ``publish``,
    ``retained_event``, teardown helpers and every protocol verb behave
    identically from the caller's point of view; internally exact-key work
    is spread over ``shards`` workers (optionally on distinct hosts).
    """

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str = "",
                 shards: int = 2,
                 shard_hosts: Optional[List[str]] = None,
                 guid_factory: Optional[GuidFactory] = None,
                 retained_cap: int = DEFAULT_RETAINED_CAP,
                 reliable: bool = False,
                 ack_timeout: float = DEFAULT_ACK_TIMEOUT,
                 delivery_retries: int = DEFAULT_DELIVERY_RETRIES,
                 ledger=None):
        super().__init__(guid, host_id, network, range_name,
                         retained_cap=retained_cap, reliable=reliable,
                         ack_timeout=ack_timeout,
                         delivery_retries=delivery_retries, ledger=ledger)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        #: the router never retains: the owner shard does
        self.retain_events = False
        self._factory = guid_factory or GuidFactory(
            seed=(guid.value & 0xFFFFFFFF) ^ 0x5A4D)
        self._hosts = list(shard_hosts or (host_id,))
        self._ring = ShardRing()
        self._shards: Dict[int, MediatorShard] = {}
        self._retired: Dict[int, MediatorShard] = {}
        self._shard_guids: Dict[int, GUID] = {}
        #: constraints of router-homed (routed) subscriptions / bridges
        self._routed_constraints: Dict[int, FilterConstraints] = {}
        self._bridge_constraints: Dict[int, FilterConstraints] = {}
        self._sub_interest = _InterestSet()
        self._bridge_interest = _InterestSet()
        self._next_shard_id = 0
        #: every shard chain ever minted, retired shards included — their
        #: entries stay part of the family's merged history
        self._shard_ledgers: List = []
        metrics = network.obs.metrics
        label = ("range",)
        self._routed_counter = metrics.counter(
            "cs.shard.routed",
            "publishes routed to their owner shard", labels=label)
        self._dispatched_counter = metrics.counter(
            "cs.shard.dispatched",
            "shard-forwarded events fanned out to routed entries at the router",
            labels=label)
        self._moved_subs_counter = metrics.counter(
            "cs.shard.moved_subs",
            "subscriptions migrated between shards by a rebalance",
            labels=label)
        self._moved_retained_counter = metrics.counter(
            "cs.shard.moved_retained",
            "retained entries migrated between shards by a rebalance",
            labels=label)
        for _ in range(shards):
            self.add_shard()

    # -- topology -------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard(self, shard_id: int) -> MediatorShard:
        return self._shards[shard_id]

    def shard_ids(self) -> List[int]:
        return list(self._shards)

    def shard_id_for(self, type_name: str, subject: object) -> int:
        return self._ring.owner((type_name, subject))

    def shard_guid_for(self, type_name: str, subject: object) -> GUID:
        """Owner shard's address — lets clients publish point-to-point."""
        return self._shard_guids[self.shard_id_for(type_name, subject)]

    def add_shard(self, host_id: Optional[str] = None) -> int:
        """Grow the worker set by one shard and rebalance onto it.

        Control-plane only: call from external/control context or the
        router's own handlers (see module docstring).
        """
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        host = host_id or self._hosts[shard_id % len(self._hosts)]
        self.network.ensure_host(host)
        # rank 0 is the router's (and the CS's) chain; shard ranks are
        # 1-based so every writer appends to a chain only it writes
        shard_ledger = (self._ledger.child(shard_id + 1)
                        if self._ledger is not None else None)
        if shard_ledger is not None:
            self._shard_ledgers.append(shard_ledger)
        shard = MediatorShard(
            self._factory.mint(), host, self.network,
            f"{self.range_name}#s{shard_id}" if self.range_name
            else f"#s{shard_id}",
            shard_id=shard_id, router_guid=self.guid, ring=self._ring,
            shard_guids=self._shard_guids, sub_interest=self._sub_interest,
            bridge_interest=self._bridge_interest,
            cs_label=self.range_name or "-",
            retained_cap=self.retained_cap, reliable=self.reliable,
            ledger=shard_ledger)
        self._shards[shard_id] = shard
        self._shard_guids[shard_id] = shard.guid
        self._ring.add(shard_id)
        if len(self._shards) > 1:
            moved_subs = moved_retained = 0
            for other in list(self._shards.values()):
                if other is shard:
                    continue
                subs, retained = self._rebalance_from(other)
                moved_subs += subs
                moved_retained += retained
            self._note_moves(moved_subs, moved_retained)
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Drain one shard: migrate its state, keep it attached for handoff."""
        if shard_id not in self._shards:
            raise ValueError(f"unknown shard {shard_id}")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._ring.remove(shard_id)
        shard = self._shards.pop(shard_id)
        self._shard_guids.pop(shard_id, None)
        moved_subs, moved_retained = self._rebalance_from(shard)
        self._note_moves(moved_subs, moved_retained)
        # stays attached: publishes already in flight to it are handed off
        # to the new owners by its own stale-route check
        self._retired[shard_id] = shard

    @staticmethod
    def _placement(event_filter: EventFilter,
                   query: Optional[dict]) -> FilterConstraints:
        """Placement facts for a subscription, query-plan aware."""
        if query is not None:
            return analyse_opspec(compile_query(query))
        return analyse_filter(event_filter)

    def _rebalance_from(self, shard: MediatorShard):
        """Move every entry ``shard`` no longer owns to the current owner.

        Operator state (windows, join tables, selector candidates) moves
        with the subscription: a shard-homed plan is pinned to one
        ``(type, subject)`` key, so the releasing shard held the only copy.
        """
        moved_subs = moved_retained = 0
        for subscription in shard.subscriptions():
            constraints = self._placement(subscription.filter,
                                          subscription.query)
            owner = self._ring.owner((constraints.type_name,
                                      constraints.subject))
            if owner == shard.shard_id:
                continue
            self._shards[owner].adopt_subscription(
                subscription, shard.release_subscription(subscription))
            moved_subs += 1
        for first_seq, key, event in shard.retained_entries():
            owner = self._ring.owner((key[0], key[2]))
            if owner == shard.shard_id:
                continue
            shard.release_retained(key)
            self._shards[owner].adopt_retained(key, event, first_seq)
            moved_retained += 1
        return moved_subs, moved_retained

    def _note_moves(self, moved_subs: int, moved_retained: int) -> None:
        label = self.range_name or "-"
        if moved_subs:
            self._moved_subs_counter.inc(moved_subs, range=label)
        if moved_retained:
            self._moved_retained_counter.inc(moved_retained, range=label)
        logger.info("%s: rebalanced %d subscriptions, %d retained entries",
                    self.name, moved_subs, moved_retained)

    def detach(self) -> None:
        for shard in list(self._shards.values()):
            shard.detach()
        for shard in list(self._retired.values()):
            shard.detach()
        super().detach()

    # -- subscription placement ----------------------------------------------

    def add_subscription(
        self,
        subscriber: GUID,
        event_filter: EventFilter,
        one_time: bool = False,
        owner: Optional[object] = None,
        replay_retained: bool = True,
        query: Optional[dict] = None,
    ) -> Subscription:
        constraints = self._placement(event_filter, query)
        if constraints.type_name is not None and constraints.has_subject:
            shard_id = self._ring.owner((constraints.type_name,
                                         constraints.subject))
            return self._shards[shard_id].add_subscription(
                subscriber, event_filter, one_time=one_time, owner=owner,
                replay_retained=replay_retained, query=query)
        subscription = super().add_subscription(
            subscriber, event_filter, one_time=one_time, owner=owner,
            replay_retained=replay_retained, query=query)
        if subscription.active:
            self._routed_constraints[subscription.sub_id] = constraints
            self._sub_interest.add(constraints)
        return subscription

    def _drop_subscription(self, subscription: Subscription,
                           record: bool = True) -> None:
        super()._drop_subscription(subscription, record=record)
        constraints = self._routed_constraints.pop(subscription.sub_id, None)
        if constraints is not None:
            self._sub_interest.remove(constraints)

    def _home_of(self, sub_id: int) -> Optional[MediatorShard]:
        """The shard holding ``sub_id``; None when it is router-homed or
        gone. The shards' own tables are the only record, so a one-time
        subscription consumed on its shard leaves nothing behind here."""
        for shards in (self._shards, self._retired):
            for shard in shards.values():
                if shard.has_subscription(sub_id):
                    return shard
        return None

    def remove_subscription(self, sub_id: int) -> bool:
        shard = self._home_of(sub_id)
        if shard is not None:
            return shard.remove_subscription(sub_id)
        return super().remove_subscription(sub_id)

    def remove_subscriptions_of(self, owner: object) -> int:
        removed = super().remove_subscriptions_of(owner)
        for shard in list(self._shards.values()):
            removed += shard.remove_subscriptions_of(owner)
        return removed

    def remove_subscriber(self, subscriber: GUID) -> int:
        removed = super().remove_subscriber(subscriber)
        for shard in list(self._shards.values()):
            removed += shard.remove_subscriber(subscriber)
        return removed

    # -- bridges --------------------------------------------------------------

    def add_bridge(self, peer: GUID, event_filter: EventFilter) -> Bridge:
        bridge = super().add_bridge(peer, event_filter)
        constraints = analyse_filter(event_filter)
        self._bridge_constraints[bridge.bridge_id] = constraints
        self._bridge_interest.add(constraints)
        return bridge

    def remove_bridge(self, bridge_id: int) -> bool:
        removed = super().remove_bridge(bridge_id)
        constraints = self._bridge_constraints.pop(bridge_id, None)
        if constraints is not None:
            self._bridge_interest.remove(constraints)
        return removed

    # -- publish routing ------------------------------------------------------

    def publish(self, event: ContextEvent, bridged: bool = False) -> int:
        """Route to the owner shard. Returns 0: delivery happens there."""
        self.published += 1
        self.by_type[event.type_name] += 1
        self._published_counter.inc(range=self.range_name or "-")
        self._routed_counter.inc(range=self.range_name or "-")
        target = self._shard_guids[self._ring.owner((event.type_name,
                                                     event.subject))]
        if self.reliable:
            payload = {"event": event.to_wire(), "bridged": bridged}
            self.requests.request(target, "publish", payload)
        else:
            payload = {"event": event.to_wire(), "bridged": bridged,
                       "ack": False}
            self.send(target, "publish", payload)
        return 0

    def _handle_shard_event(self, message: Message) -> None:
        """An owner shard forwarded an event our routed entries may match."""
        event = ContextEvent.from_wire(message.payload["event"])
        bridged = bool(message.payload.get("bridged"))
        self._dispatched_counter.inc(range=self.range_name or "-")
        delivered = self._fan_out(event, bridged)
        if self.reliable:
            # only the request-with-retries path consumes this ack; the
            # fire-and-forget path would pay a message per forward for nothing
            self.reply(message, "shard-event-ack", {"delivered": delivered})

    # -- retained state -------------------------------------------------------

    def _replay_events(self, type_name: Optional[str]) -> List[ContextEvent]:
        """Merge every shard's retained slice in first-retained order."""
        return _in_first_retained_order(self.all_retained_entries(type_name))

    def retained_event(self, type_name: str, representation: str,
                       subject: object) -> Optional[ContextEvent]:
        shard_id = self._ring.owner((type_name, subject))
        return self._shards[shard_id].retained_event(
            type_name, representation, subject)

    # -- reliable-mode resync proxy -------------------------------------------

    def _handle_resync(self, message: Message) -> None:
        """Proxy resyncs for shard-homed subscriptions to their owner.

        Subscribers address resync at the one mediator GUID they were
        configured with — this router — but the retained state and the
        subscription live on the owner shard. Relay the request and the ack.
        """
        sub_id = message.payload.get("sub_id")
        shard = self._home_of(sub_id)
        if shard is None:
            super()._handle_resync(message)
            return
        self.requests.request(
            shard.guid, "resync", {"sub_id": sub_id},
            on_reply=lambda reply: self.reply(message, "resync-ack",
                                              dict(reply.payload)),
            on_timeout=lambda: self.reply(message, "resync-ack",
                                          {"ok": False, "sub_id": sub_id}))

    # -- introspection --------------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return (len(self._subscriptions)
                + sum(shard.subscription_count
                      for shard in self._shards.values()))

    @property
    def retained_count(self) -> int:
        return sum(shard.retained_count for shard in self._shards.values())

    def subscriptions_for(self, subscriber: GUID) -> List[Subscription]:
        found = super().subscriptions_for(subscriber)
        for shard in self._shards.values():
            found.extend(shard.subscriptions_for(subscriber))
        return found

    def all_subscriptions(self) -> List[Subscription]:
        found = self.subscriptions()
        for shard in self._shards.values():
            found.extend(shard.subscriptions())
        return found

    def all_retained_entries(self, type_name: Optional[str] = None) -> List[tuple]:
        entries: List[tuple] = []
        for shard in self._shards.values():
            entries.extend(shard.retained_entries(type_name))
        return entries

    def ledgers(self) -> List:
        """Root chain plus every shard chain ever minted, rank order."""
        chains = super().ledgers()
        chains.extend(self._shard_ledgers)
        return chains

    def index_stats(self) -> Dict[str, int]:
        stats = super().index_stats()
        for shard in self._shards.values():
            for key, value in shard.index_stats().items():
                stats[key] += value
        stats["shards"] = len(self._shards)
        stats["routed_subscriptions"] = len(self._subscriptions)
        return stats

    def opgraph_stats(self) -> Dict[str, float]:
        """Router + shard operator-graph counters, summed (ratio re-derived)."""
        stats = super().opgraph_stats()
        for shard in self._shards.values():
            for key, value in shard.opgraph_stats().items():
                if key != "reuse_ratio":
                    stats[key] += value
        requested = stats["nodes_created"] + stats["reuse_hits"]
        stats["reuse_ratio"] = (stats["reuse_hits"] / requested
                                if requested else 0.0)
        return stats
