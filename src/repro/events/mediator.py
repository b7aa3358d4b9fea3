"""The Event Mediator — per-range pub/sub hub.

Section 3.1: the Event Mediator "manages the establishment, maintenance and
removal of event subscriptions between Context Entities and Context Aware
Applications". CEs publish typed events to their range's mediator; the
mediator evaluates subscription filters and forwards matching events.

Its verbs (PROTOCOL.md) are ``publish``, ``subscribe``, ``unsubscribe``,
``unsubscribe-owner`` and ``resync``, each answered by its ack, and
``event-ack``; each has a ``_handle_<verb>`` method, which
``Process.on_message`` dispatches onto, and the co-located Context Server
calls the same operations directly. Their fields are declared in :data:`repro.net.wire.VERBS` and
checked where a message arrives, so a handler reads them parsed from
``message.fields`` (the publish's event, the subscribe's GUID and compiled
filter); a malformed request is answered with its ack carrying ``{"ok":
False, "error": ...}`` and changes nothing, a malformed ``event-ack`` is
dropped. A subscriber gets one ``event {"event": <wire>, "subs": [[sub_id,
seq], ...]}`` per publish, listing each subscription it matched; they share
one wire event, the ledger entry has its own copy.

Every mediator appends to a context ledger — the chain it is given (a
Context Server passes its range's) or a private one — from which
:mod:`repro.ledger.replay` rebuilds its books.

A mediator numbers its subscriptions from 1 (the fan-out sorts by that
number); a subscriber keys each stream ``(mediator, sub_id)``.

Delivery is acknowledged and retransmitted: every delivery is a
``[sub_id, seq]`` pair with a per-subscription sequence number, carried in
the one message its publish sends that subscriber; the mediator keeps each
pair, pointing at that shared message, in its subscriber's **unacked
window** until the subscriber's cumulative ``event-ack`` names an in-order
prefix ``upto`` at or past its seq (see
:class:`repro.events.stream.AckBatcher`). Each subscriber has one window
across its subscriptions and one retransmit timer, armed when the window
becomes non-empty and never moved by an ack. When it fires and the
oldest entry has waited the current backoff (:data:`DEFAULT_ACK_TIMEOUT`
``· 1.5^attempts``, jittered once retransmitting), every message holding an
unacked entry is sent again, once — go-back-N; the subscriber's
reassembler drops what it already has by seq. An ack that makes progress
resets ``attempts``; after :data:`DEFAULT_DELIVERY_RETRIES` expiries
without progress the whole window counts as exhausted and is dropped. A
full window (:data:`WINDOW_CAP`) gives up its oldest entry. Either way the
subscriber sees a hole in the sequence and sends ``resync``: the
mediator replays the retained events matching that subscription under
fresh sequence numbers and answers with the baseline seq to fast-forward
past. A subscriber that leaves the range is owed nothing: its window
goes with its subscriptions.

Dispatch has one engine: every subscription's filter is a sink of one
node of the mediator's shared filter table (:mod:`repro.query.opgraph`),
where spec-identical filters share one node, so ten thousand look-alike
subscriptions cost one predicate evaluation per publish plus fan-out. The
table files each node once: a filter carrying exact type/subject/source
constraints in a dict bucket, everything else in a small residual list,
so a publish costs O(matching + residual) instead of O(all
subscriptions). Windowed, joined and selected context is built by
derived Context Entities and the query's Which clause, not by the
mediator. Delivery order is entry-identical to a linear scan over the
subscription table in insertion order — that scan lives in
``tests/events/reference_scan.py`` and the differential and property suites
hold the mediator to it.
"""

from __future__ import annotations

import itertools
import logging
import random
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.ids import GUID
from repro.net.message import Message
from repro.net.transport import Network, Process
from repro.events.event import ContextEvent
from repro.events.filters import EventFilter
from repro.events.subscription import Subscription
from repro.ledger.ledger import ContextLedger
from repro.query.opgraph.engine import OperatorGraph

logger = logging.getLogger(__name__)

#: bound on retained events per mediator; oldest-first eviction
DEFAULT_RETAINED_CAP = 4096

#: delivery timing: first ack wait, retransmission budget
#: and backoff. Sized so the full retransmit window (~190 time units)
#: comfortably outlives any bounded loss episode the chaos experiments run.
DEFAULT_ACK_TIMEOUT = 6.0
DEFAULT_DELIVERY_RETRIES = 6
DELIVERY_BACKOFF = 1.5
#: a retransmission wait is stretched by up to this fraction, drawn from a
#: stream seeded by the mediator's GUID (as RequestManager draws its own)
DELIVERY_JITTER = 0.25
#: bound on one subscriber's unacked deliveries; a full window
#: sheds its oldest entry and the subscriber heals the hole by ``resync``
WINDOW_CAP = 1024

#: one unacked delivery: (seq, its shared payload, delivery ordinal, sent at)
_Unacked = Tuple[int, Dict[str, Any], int, float]


class _Window:
    """One subscriber's unacked deliveries and their one timer."""

    __slots__ = ("streams", "size", "timer", "attempts", "wait",
                 "resent_at", "resent_through")

    def __init__(self, wait: float) -> None:
        #: sub_id -> its unacked deliveries in seq order (never empty)
        self.streams: Dict[int, Deque[_Unacked]] = {}
        self.size = 0
        self.timer = None
        #: retransmission rounds since the last ack that made progress
        self.attempts = 0
        #: how long the oldest entry may wait before the next round
        self.wait = wait
        #: the last round's time, and the last delivery ordinal it covered
        self.resent_at = float("-inf")
        self.resent_through = 0

    def oldest_head(self) -> Tuple[int, Deque[_Unacked]]:
        """(sub_id, entries) of the subscription holding the oldest entry."""
        return min(self.streams.items(), key=lambda item: item[1][0][2])


class EventMediator(Process):
    """Pub/sub hub for one range."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str = "", ledger: Optional[ContextLedger] = None):
        super().__init__(guid, host_id, network, name=f"mediator:{range_name or guid}")
        self.range_name = range_name
        #: the chain this mediator appends to (an empty one is falsy)
        self.ledger = (ledger if ledger is not None else ContextLedger(
            self.name, metrics=network.obs.metrics, range_name=range_name))
        #: ``[sub_id, seq]`` of every delivery the fan-out or replay
        #: in progress has made; None between them (neither re-enters:
        #: delivering only ``send``s)
        self._served: Optional[list] = None
        #: subscriber -> its unacked deliveries
        self._windows: Dict[GUID, _Window] = {}
        #: the retransmission jitter stream; the first round creates it
        self._jitter_rng: Optional[random.Random] = None
        #: the sub_id of each subscription, in creation order
        self._sub_ids = itertools.count(1)
        self._subscriptions: Dict[int, Subscription] = {}
        #: reverse maps so teardown by owner/subscriber is O(own subs), not O(S)
        self._subs_by_owner: Dict[object, Dict[int, None]] = {}
        self._subs_by_subscriber: Dict[GUID, Dict[int, None]] = {}
        self.published = 0
        self.deliveries = 0
        self.retained_evictions = 0
        #: most recent event per (type, representation, subject) — served to
        #: late joiners so a new subscriber does not wait for the next change.
        #: Insertion-ordered; bounded by :data:`DEFAULT_RETAINED_CAP` with
        #: oldest-first (first-retained) eviction. Updates stay in place,
        #: preserving the replay order the naive scan produced.
        self._retained: Dict[tuple, ContextEvent] = {}
        #: type_name -> ordered set of retained keys, so replay for a
        #: type-constrained subscription scans only that type's entries
        self._retained_by_type: Dict[str, Dict[tuple, None]] = {}
        # hot-path series, bound once
        metrics = network.obs.metrics
        label = range_name or "-"
        self._published_counter = metrics.counter(
            "mediator.events.published").series(range=label)
        self._deliveries_counter = metrics.counter(
            "mediator.events.delivered").series(range=label)
        self._retained_evicted_counter = metrics.counter(
            "mediator.retained.evicted").series(range=label)
        self._ack_exhausted_counter = metrics.counter(
            "mediator.seq.ack_exhausted").series(range=label)
        self._resync_replays_counter = metrics.counter(
            "mediator.seq.resync_replays").series(range=label)
        self._window_shed_counter = metrics.counter(
            "mediator.seq.window_shed").series(range=label)
        # window retransmissions keep the request-layer counters' meaning,
        # under kind "event"
        self._retry_attempts_counter = metrics.counter(
            "net.retry.attempts").series(kind="event")
        self._retry_exhausted_counter = metrics.counter(
            "net.retry.exhausted").series(kind="event")
        self._retry_recovered_counter = metrics.counter(
            "net.retry.recovered").series(kind="event")
        self.resyncs_served = 0
        self.deliveries_exhausted = 0
        self._opgraph = OperatorGraph(self._graph_deliver, label=label,
                                      metrics=metrics)

    # -- direct API (used by co-located Context Server and by tests) ---------

    def add_subscription(
        self,
        subscriber: GUID,
        event_filter: EventFilter,
        one_time: bool = False,
        owner: Optional[str] = None,
        replay_retained: bool = True,
    ) -> Subscription:
        """Establish a subscription; optionally replay the retained event.

        Replay gives a newly wired configuration its initial values (the
        paper's Figure-3 graph must produce a first path without waiting for
        Bob or John to move).
        """
        subscription = Subscription(
            sub_id=next(self._sub_ids),
            subscriber=subscriber,
            filter=event_filter,
            one_time=one_time,
            owner=owner,
            created_at=self.now,
        )
        self.ledger.append(self.now, "subscribe", {
            "sub_id": subscription.sub_id,
            "subscriber": subscriber.hex,
            "filter": event_filter.to_spec(),
            "one_time": one_time,
            "owner": None if owner is None else str(owner),
        })
        sub_id = subscription.sub_id
        self._subscriptions[sub_id] = subscription
        type_name = self._opgraph.attach(sub_id, event_filter)
        if owner is not None:
            self._subs_by_owner.setdefault(owner, {})[sub_id] = None
        self._subs_by_subscriber.setdefault(subscriber, {})[sub_id] = None
        if replay_retained:
            self._replay_retained(subscription, type_name)
            if not subscription.active:
                self._drop_subscription(subscription)
        return subscription

    def _replay_retained(self, subscription: Subscription,
                         type_name: Optional[str]) -> None:
        """Deliver retained events matching a fresh subscription.

        A filter whose node carries a type constraint only ever matches
        events of that type, so the per-type retained index bounds the scan.
        """
        events = self._replay_events(type_name)
        counter = (self._opgraph.residual_scans_series if type_name is None
                   else self._opgraph.index_hits_series)
        counter.inc(len(events))
        self._served = served = []
        try:
            for event in events:
                if subscription.active and subscription.filter.matches(event):
                    self._deliver([subscription], event)
        finally:
            self._served = None
        if served:
            self.ledger.append(self.now, "replay", {"deliveries": served})

    def _replay_events(self, type_name: Optional[str]) -> List[ContextEvent]:
        """Retained events of one type (``None``: all), in replay order.

        Per-type insertion order equals the global insertion order
        restricted to that type, so narrowing by type never reorders.
        """
        return [event for _, event in self.all_retained_entries(type_name)]

    def remove_subscription(self, sub_id: int) -> bool:
        subscription = self._subscriptions.get(sub_id)
        if subscription is None:
            return False
        self._drop_subscription(subscription)
        return True

    def remove_subscriptions_of(self, owner: str) -> int:
        """Tear down every subscription established for ``owner``."""
        bucket = self._subs_by_owner.get(owner)
        if bucket is None:
            return 0
        doomed = [self._subscriptions[sub_id] for sub_id in list(bucket)]
        for subscription in doomed:
            self._drop_subscription(subscription)
        return len(doomed)

    def remove_subscriber(self, subscriber: GUID) -> int:
        """Drop all subscriptions delivering to ``subscriber`` (it departed),
        and its unacked window with them: a departed subscriber is owed no
        retransmission."""
        window = self._windows.pop(subscriber, None)
        if window is not None and window.timer is not None:
            window.timer.cancel()
        bucket = self._subs_by_subscriber.get(subscriber)
        if bucket is None:
            return 0
        doomed = [self._subscriptions[sub_id] for sub_id in list(bucket)]
        for subscription in doomed:
            self._drop_subscription(subscription)
        return len(doomed)

    def _drop_subscription(self, subscription: Subscription) -> None:
        """Remove one subscription from the store, index and reverse maps."""
        self.ledger.append(self.now, "unsubscribe",
                            {"sub_id": subscription.sub_id})
        self._subscriptions.pop(subscription.sub_id, None)
        self._opgraph.detach(subscription.sub_id)
        if subscription.owner is not None:
            self._reverse_remove(self._subs_by_owner, subscription.owner,
                                 subscription.sub_id)
        self._reverse_remove(self._subs_by_subscriber, subscription.subscriber,
                             subscription.sub_id)

    @staticmethod
    def _reverse_remove(store: Dict[object, Dict[int, None]], key: object,
                        sub_id: int) -> None:
        bucket = store.get(key)
        if bucket is None:
            return
        bucket.pop(sub_id, None)
        if not bucket:
            del store[key]

    def publish(self, event: ContextEvent) -> int:
        """Distribute ``event``; returns the number of local deliveries."""
        self.published += 1
        self._published_counter.inc()
        # span only when this publication is part of a traced operation
        # (a query replay, say); background sensor chatter stays span-free
        # so it cannot swamp the trace store
        with self.network.obs.tracer.span_if_active(
                "mediator.publish", range=self.range_name,
                type=event.type_name) as span:
            delivered = self._fan_out(event)
            if span is not None:
                span.set(delivered=delivered)
        return delivered

    def _fan_out(self, event: ContextEvent) -> int:
        # the ledger records the publish, not each recipient: one entry,
        # appended once it is complete (a sealed entry is never mutated)
        key = self._store_retained(event)
        entry = {"key": list(key), "event": event.to_wire()}
        self._served = served = []
        try:
            delivered = self._opgraph.publish(event)
        finally:
            self._served = None
        entry["deliveries"] = served
        self.ledger.append(self.now, "publish", entry)
        return delivered

    def _graph_deliver(self, sub_ids: List[int], event: ContextEvent) -> None:
        """Filter-table callback with a publish's sorted matches; it serves
        each subscription at most once, so every one is still live here."""
        subscriptions = [self._subscriptions[sub_id] for sub_id in sub_ids]
        self._deliver(subscriptions, event)
        for subscription in subscriptions:
            if not subscription.active:  # one-time: consumed by this delivery
                self._drop_subscription(subscription)

    def _store_retained(self, event: ContextEvent) -> tuple:
        """Store ``event`` under its key (evicting at the cap); the key."""
        key = (event.type_name, event.representation, event.subject)
        if key not in self._retained and len(self._retained) >= DEFAULT_RETAINED_CAP:
            oldest_key = next(iter(self._retained))
            del self._retained[oldest_key]
            by_type = self._retained_by_type.get(oldest_key[0])
            if by_type is not None:
                by_type.pop(oldest_key, None)
                if not by_type:
                    del self._retained_by_type[oldest_key[0]]
            self.retained_evictions += 1
            self._retained_evicted_counter.inc()
            self.ledger.append(self.now, "retain-evict",
                                {"key": list(oldest_key)})
        self._retained[key] = event
        by_type = self._retained_by_type.get(event.type_name)
        if by_type is None:
            by_type = self._retained_by_type[event.type_name] = {}
        by_type[key] = None
        return key

    def _deliver(self, subscriptions: List[Subscription],
                 event: ContextEvent) -> None:
        """Serve ``event`` to ``subscriptions`` (in ``sub_id`` order): one
        wire form, one ``event`` per subscriber listing its pairs."""
        wire = event.to_wire()
        served = self._served
        payloads: Dict[GUID, Dict[str, Any]] = {}
        for subscription in subscriptions:
            sub_id, seq = subscription.sub_id, subscription.record_delivery()
            if served is not None:  # the ledger's own copy of the pair
                served.append([sub_id, seq])
            payload = payloads.get(subscription.subscriber)
            if payload is None:
                payload = payloads[subscription.subscriber] = {
                    "event": wire, "subs": []}
            payload["subs"].append([sub_id, seq])
        count = len(subscriptions)
        self.deliveries += count
        self._deliveries_counter.inc(count)
        for subscriber, payload in payloads.items():
            with self.network.obs.tracer.span_if_active(
                    "mediator.deliver", range=self.range_name,
                    type=event.type_name, subs=payload["subs"]):
                self.send(subscriber, "event", payload)
            for sub_id, seq in payload["subs"]:
                self._hold(subscriber, sub_id,
                           (seq, payload, self.deliveries, self.now))

    # -- the unacked windows --------------------------------------------------

    def _hold(self, subscriber: GUID, sub_id: int, entry: _Unacked) -> None:
        """Keep a sent delivery until acked; arm the window's one timer."""
        window = self._windows.get(subscriber)
        if window is None:
            window = self._windows[subscriber] = _Window(DEFAULT_ACK_TIMEOUT)
        entries = window.streams.get(sub_id)
        if entries is None:
            entries = window.streams[sub_id] = deque()
        entries.append(entry)
        window.size += 1
        if window.size > WINDOW_CAP:
            self._shed_oldest(window)
        if window.timer is None:
            window.timer = self.scheduler.schedule(
                window.wait, self._window_expired, subscriber)

    def _shed_oldest(self, window: _Window) -> None:
        """Give up the oldest unacked delivery of a full window; the
        subscriber finds the hole and heals it through ``resync``."""
        sub_id, entries = window.oldest_head()
        entries.popleft()
        if not entries:
            del window.streams[sub_id]
        window.size -= 1
        self._window_shed_counter.inc()

    def _window_expired(self, subscriber: GUID) -> None:
        """The window's timer: wait out the oldest entry, retransmit, or
        give the whole window up once the budget is spent."""
        window = self._windows.get(subscriber)
        if window is None:  # the subscriber departed meanwhile
            return
        window.timer = None
        if not window.size:
            del self._windows[subscriber]
            return
        oldest = max(window.oldest_head()[1][0][3], window.resent_at)
        due = oldest + window.wait
        if due > self.now:
            window.timer = self.scheduler.schedule_at(
                due, self._window_expired, subscriber)
            return
        if window.attempts >= DEFAULT_DELIVERY_RETRIES:
            self._window_exhausted(subscriber, window)
            return
        window.attempts += 1
        window.resent_at = self.now
        window.resent_through = self.deliveries
        # the pairs of one message share its payload: resend it once
        for payload in {id(entry[1]): entry[1] for entries in
                        window.streams.values() for entry in entries}.values():
            self.send(subscriber, "event", payload)
        self._retry_attempts_counter.inc(window.size)
        if self._jitter_rng is None:
            # seeded from the GUID: deterministic per mediator, and
            # independent of the network's latency/drop stream
            self._jitter_rng = random.Random(self.guid.value & 0xFFFFFFFFFFFF)
        window.wait = (DEFAULT_ACK_TIMEOUT * DELIVERY_BACKOFF ** window.attempts
                       * (1.0 + DELIVERY_JITTER * self._jitter_rng.random()))
        window.timer = self.scheduler.schedule(
            window.wait, self._window_expired, subscriber)

    def _window_exhausted(self, subscriber: GUID, window: _Window) -> None:
        """The retransmission budget ran dry: every entry counts as
        exhausted, once. Nothing more to do mediator-side: the subscriber
        sees the holes and drives recovery through ``resync``."""
        del self._windows[subscriber]
        count = window.size
        self.deliveries_exhausted += count
        self._ack_exhausted_counter.inc(count)
        self._retry_exhausted_counter.inc(count)
        logger.info("%s: %d deliveries to %s unacked after %d retransmissions",
                    self.name, count, subscriber, window.attempts)

    def _ack(self, window: _Window, acks: List[List[int]]) -> None:
        """Release every entry at or below each ``upto``."""
        released = recovered = 0
        for sub_id, upto in acks:
            entries = window.streams.get(sub_id)
            if entries is None:
                continue
            while entries and entries[0][0] <= upto:
                if entries.popleft()[2] <= window.resent_through:
                    recovered += 1
                released += 1
            if not entries:
                del window.streams[sub_id]
        if not released:
            return
        window.size -= released
        window.attempts = 0
        window.wait = DEFAULT_ACK_TIMEOUT
        if recovered:
            self._retry_recovered_counter.inc(recovered)

    # -- message protocol -----------------------------------------------------

    def _handle_publish(self, message: Message) -> None:
        delivered = self.publish(message.fields["event"])
        self.reply(message, "publish-ack", {"delivered": delivered})

    def _handle_subscribe(self, message: Message) -> None:
        fields = message.fields
        subscription = self.add_subscription(
            subscriber=fields["subscriber"],
            event_filter=fields["filter"],
            one_time=fields.get("one_time", False),
            owner=fields.get("owner"),
            replay_retained=fields.get("replay", True),
        )
        self.reply(message, "subscribe-ack", {"sub_id": subscription.sub_id})

    def _handle_unsubscribe(self, message: Message) -> None:
        removed = self.remove_subscription(message.fields["sub_id"])
        self.reply(message, "unsubscribe-ack", {"removed": removed})

    def _handle_unsubscribe_owner(self, message: Message) -> None:
        count = self.remove_subscriptions_of(message.fields["owner"])
        self.reply(message, "unsubscribe-owner-ack", {"removed": count})

    def _handle_event_ack(self, message: Message) -> None:
        """A subscriber's cumulative ack: for each listed subscription,
        every seq up to ``upto`` arrived. It gets no reply."""
        window = self._windows.get(message.sender)
        if window is not None:
            self._ack(window, message.fields["acks"])

    def _handle_resync(self, message: Message) -> None:
        """A subscriber found an unrecoverable hole in its sequence.

        Replay the retained events its filter matches under *fresh* sequence
        numbers and answer with the pre-replay baseline: the subscriber
        fast-forwards past the hole and then consumes the replay in order,
        restoring the current retained state without duplicating anything it
        already saw (stale seqs are dropped by its reassembler).
        """
        sub_id = message.fields["sub_id"]
        subscription = self._subscriptions.get(sub_id)
        if subscription is None or not subscription.active:
            self.reply(message, "resync-ack", {"ok": False, "sub_id": sub_id})
            return
        baseline = subscription.seq
        self.resyncs_served += 1
        before = self.deliveries
        self._replay_retained(
            subscription, self._opgraph.type_constraint(subscription.sub_id))
        self._resync_replays_counter.inc(self.deliveries - before)
        if not subscription.active:  # one-time sub consumed by the replay
            self._drop_subscription(subscription)
        self.reply(message, "resync-ack",
                   {"ok": True, "sub_id": sub_id, "seq": baseline})

    # -- introspection --------------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    @property
    def retained_count(self) -> int:
        return len(self._retained)

    def unacked(self, subscriber: Optional[GUID] = None) -> int:
        """Deliveries awaiting an ack (for one subscriber, or all)."""
        if subscriber is not None:
            window = self._windows.get(subscriber)
            return window.size if window is not None else 0
        return sum(window.size for window in self._windows.values())

    def opgraph_stats(self) -> Dict[str, float]:
        """The filter table's sizes and counters: nodes (look-alike
        subscriptions share one), how many sit in buckets and on the
        residual list, reuse, evaluations and fan-out."""
        return self._opgraph.stats()

    def subscriptions_for(self, subscriber: GUID) -> List[Subscription]:
        bucket = self._subs_by_subscriber.get(subscriber, {})
        return [self._subscriptions[sub_id] for sub_id in bucket]

    def subscriptions(self) -> List[Subscription]:
        """Every live subscription, in insertion order."""
        return list(self._subscriptions.values())

    def all_retained_entries(self, type_name: Optional[str] = None) -> List[tuple]:
        """``(key, event)`` pairs in store order (of one type when
        ``type_name`` is given)."""
        keys = (list(self._retained) if type_name is None
                else list(self._retained_by_type.get(type_name, ())))
        return [(key, self._retained[key]) for key in keys]

    def has_subscription(self, sub_id: int) -> bool:
        return sub_id in self._subscriptions

    def retained_event(self, type_name: str, representation: str, subject: object) -> Optional[ContextEvent]:
        return self._retained.get((type_name, representation, subject))
