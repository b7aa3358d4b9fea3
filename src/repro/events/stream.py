"""Subscriber-side reassembly and acknowledgement of event streams.

A mediator sends a subscriber one ``event`` per publish, ``{"event": <wire
event>, "subs": [[sub_id, seq], ...]}``: every subscription the event
matched, an int ``sub_id`` with a non-bool int ``seq >= 1``.
:func:`offer_event` checks and parses it once and offers each pair to the
:class:`StreamReassembler`, which restores the publish order the mediator
produced:

* ``seq == last + 1``  — deliver, then flush any buffered successors;
* ``seq <= last``      — a duplicate (a retransmission raced the ack): drop;
* ``seq >  last + 1``  — a hole. Buffer the arrival; if the hole is still
  open after :data:`DEFAULT_RESYNC_AFTER` (i.e. the mediator's own
  retransmissions did not fill it), ask the mediator to **resync**
  (:func:`request_resync`): it replays the retained events matching the
  subscription under fresh sequence numbers and names the baseline to
  fast-forward past, so a stream with genuinely lost events heals instead
  of staying silent forever.

The :class:`AckBatcher` beside it answers the mediator. Acks are
*cumulative*: one ``event-ack {"acks": [[sub_id, upto], ...]}`` per
mediator names, for every subscription that received something, the
reassembler's in-order prefix ``upto`` — every seq up to it has arrived.
It is sent once :data:`EVENT_ACK_EVERY` sequenced deliveries from that
mediator are pending, or :data:`EVENT_ACK_DELAY` after the first of them,
whichever comes first. A duplicate counts as a delivery too, so a lost ack
is repaired by the retransmission it provokes.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, Optional

from repro.core.ids import GUID
from repro.net.sim import Scheduler, Timer
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

#: quiet time on an open hole before a resync is requested; sized
#: above the mediator's full retransmit window so resync only fires once
#: the mediator has given a delivery up for lost
DEFAULT_RESYNC_AFTER = 60.0

#: first-answer wait and retransmission budget of a ``resync`` request
RESYNC_TIMEOUT = 10.0
RESYNC_RETRIES = 2

#: pending sequenced deliveries from one mediator that force an ack at once
EVENT_ACK_EVERY = 32
#: how long the first pending delivery waits for company before the ack
#: goes out. This plus one round trip must stay under the mediator's
#: ``DEFAULT_ACK_TIMEOUT`` (6.0), or a quiet stream is retransmitted once
#: for every ack.
EVENT_ACK_DELAY = 1.0


def offer_event(owner, message, parse: Callable[[Any], Any]) -> bool:
    """Offer each ``[sub_id, seq]`` of an ``event`` to ``owner.streams``
    with the event ``parse``d once (None if it does not parse: its seqs are
    still consumed), noting each with ``owner.acks``; True if any pair
    was offered. Any other ``subs`` drops the whole message with a log
    line."""
    payload = message.payload
    subs = payload.get("subs")
    try:
        if type(subs) is not list:
            raise TypeError(f"subs is a {type(subs).__name__}, not a list")
        for sub_id, seq in subs:  # raises unless each item is a pair
            if type(sub_id) is not int or type(seq) is not int or seq < 1:
                raise ValueError(f"malformed pair {[sub_id, seq]!r}")
    except (TypeError, ValueError) as exc:
        logger.info("%s: dropping event: %r", owner.name, exc)
        return False
    try:
        item = parse(payload["event"])
    except (KeyError, TypeError, ValueError) as exc:
        logger.info("%s: dropping malformed event %r: %r",
                    owner.name, payload, exc)
        item = None
    for sub_id, seq in subs:
        owner.streams.offer(sub_id, seq, item)
        owner.acks.note(message.sender, sub_id)
    return bool(subs)


def request_resync(owner, mediator: Optional[GUID], sub_id: int) -> None:
    """Ask ``mediator`` (None: nobody to ask) to resync ``sub_id`` through
    ``owner.requests``, and hand the answer to ``owner.streams``."""
    if mediator is None:
        return
    owner.requests.request(
        mediator, "resync", {"sub_id": sub_id},
        on_reply=lambda reply: owner.streams.resync_answered(
            sub_id, reply.payload),
        on_timeout=lambda: owner.streams.resync_failed(sub_id),
        timeout=RESYNC_TIMEOUT, retries=RESYNC_RETRIES)


class _SubStream:
    """Per-subscription reorder state."""

    __slots__ = ("last", "pending", "gap_timer")

    def __init__(self) -> None:
        self.last = 0
        self.pending: Dict[int, Any] = {}
        self.gap_timer: Optional[Timer] = None


class StreamReassembler:
    """In-order, exactly-once delivery over per-subscription seq numbers."""

    def __init__(self, scheduler: Scheduler,
                 deliver: Callable[[int, Any], None],
                 request_resync: Callable[[int], None], metrics=None):
        self._scheduler = scheduler
        self._deliver = deliver
        self._request_resync = request_resync
        self._streams: Dict[int, _SubStream] = {}
        self.dup_dropped = 0
        self.gaps_detected = 0
        self.resyncs_requested = 0
        metrics = metrics or MetricsRegistry()
        self._gap_counter = metrics.counter("mediator.seq.gaps").series()
        self._dup_counter = metrics.counter(
            "mediator.seq.dup_dropped").series()
        self._resync_counter = metrics.counter("mediator.seq.resyncs").series()

    # -- ingest ---------------------------------------------------------------

    def offer(self, sub_id: int, seq: int, item: Any) -> bool:
        """Feed one arrival for ``sub_id``; ``deliver(sub_id, item)`` runs
        once it is in order. Returns True when delivered immediately."""
        stream = self._streams.setdefault(sub_id, _SubStream())
        if seq <= stream.last or seq in stream.pending:
            self.dup_dropped += 1
            self._dup_counter.inc()
            return False
        if seq == stream.last + 1:
            stream.last = seq
            self._deliver(sub_id, item)
            self._flush(sub_id, stream)
            return True
        if not stream.pending:
            self.gaps_detected += 1
            self._gap_counter.inc()
        stream.pending[seq] = item
        self._arm(sub_id, stream)
        return False

    def resync_done(self, sub_id: int, baseline: int) -> None:
        """The mediator replayed retained state under seqs > ``baseline``.

        Whatever buffered arrivals predate the baseline drain in order; the
        stream then fast-forwards past the unrecoverable hole.
        """
        stream = self._streams.get(sub_id)
        if stream is None:
            return
        for seq in sorted(s for s in stream.pending if s <= baseline):
            self._deliver(sub_id, stream.pending.pop(seq))
        if baseline > stream.last:
            stream.last = baseline
        self._flush(sub_id, stream)
        if stream.pending:
            self._arm(sub_id, stream)

    def resync_failed(self, sub_id: int) -> None:
        """The resync RPC itself expired; re-arm so the stream retries."""
        stream = self._streams.get(sub_id)
        if stream is not None and stream.pending:
            self._arm(sub_id, stream)

    def resync_answered(self, sub_id: int, payload: Any) -> None:
        """Apply a ``resync-ack``: fast-forward, or drop a dead stream.

        A refusal means the mediator no longer knows the subscription; its
        stream is dead and any buffered fragments with it. An ``ok`` reply
        fast-forwards only past a non-bool int ``seq >= 0``; any other
        reply is malformed and handled like an expired resync: re-armed.
        """
        if isinstance(payload, dict) and not payload.get("ok"):
            self.forget(sub_id)
            return
        seq = payload.get("seq") if isinstance(payload, dict) else None
        if type(seq) is int and seq >= 0:
            self.resync_done(sub_id, seq)
        else:
            logger.info("stream %s: malformed resync-ack %r", sub_id,
                        payload)
            self.resync_failed(sub_id)

    def forget(self, sub_id: int) -> None:
        """Drop all state for a dead subscription."""
        stream = self._streams.pop(sub_id, None)
        if stream is not None and stream.gap_timer is not None:
            stream.gap_timer.cancel()

    def reset(self) -> None:
        for sub_id in list(self._streams):
            self.forget(sub_id)

    # -- introspection --------------------------------------------------------

    def last_seq(self, sub_id: int) -> int:
        stream = self._streams.get(sub_id)
        return stream.last if stream is not None else 0

    def open_holes(self, sub_id: int) -> int:
        stream = self._streams.get(sub_id)
        return len(stream.pending) if stream is not None else 0

    # -- internals ------------------------------------------------------------

    def _flush(self, sub_id: int, stream: _SubStream) -> None:
        while stream.last + 1 in stream.pending:
            stream.last += 1
            self._deliver(sub_id, stream.pending.pop(stream.last))
        if not stream.pending and stream.gap_timer is not None:
            stream.gap_timer.cancel()
            stream.gap_timer = None

    def _arm(self, sub_id: int, stream: _SubStream) -> None:
        if stream.gap_timer is None:
            stream.gap_timer = self._scheduler.schedule(
                DEFAULT_RESYNC_AFTER, self._gap_expired, sub_id)

    def _gap_expired(self, sub_id: int) -> None:
        stream = self._streams.get(sub_id)
        if stream is None:
            return
        stream.gap_timer = None
        if not stream.pending:
            return
        self.resyncs_requested += 1
        self._resync_counter.inc()
        logger.info("stream %s: hole outlived retransmission, resyncing",
                    sub_id)
        self._request_resync(sub_id)


class _DueAcks:
    """What one mediator is owed: subscriptions, deliveries, the flush."""

    __slots__ = ("subs", "count", "timer")

    def __init__(self, timer: Timer) -> None:
        self.subs: Dict[Any, None] = {}
        self.count = 0
        self.timer = timer


class AckBatcher:
    """One cumulative ``event-ack`` per mediator per interval.

    ``owner`` is the subscribing process (it sends the acks and owns the
    flush timers); ``streams`` is its reassembler, whose in-order prefix is
    read when the ack leaves, so the ack covers whatever arrived meanwhile.
    """

    def __init__(self, owner, streams: StreamReassembler):
        self.owner = owner
        self._streams = streams
        #: mediator -> what it is owed; at most one flush timer each
        self._due: Dict[GUID, _DueAcks] = {}

    def note(self, mediator: GUID, sub_id: Any) -> None:
        """A delivery for ``sub_id`` arrived from ``mediator``."""
        due = self._due.get(mediator)
        if due is None:
            due = self._due[mediator] = _DueAcks(self.owner.scheduler.schedule(
                EVENT_ACK_DELAY, self._flush, mediator))
        due.subs[sub_id] = None
        due.count += 1
        if due.count >= EVENT_ACK_EVERY:
            self._flush(mediator)

    def flush(self) -> None:
        """Send every pending ack now (the subscriber is leaving a range)."""
        for mediator in list(self._due):
            self._flush(mediator)

    def drop(self) -> None:
        """Forget every pending ack unsent (the subscriber crashed)."""
        for due in self._due.values():
            due.timer.cancel()
        self._due.clear()

    def _flush(self, mediator: GUID) -> None:
        due = self._due.pop(mediator, None)
        if due is None:
            return
        due.timer.cancel()
        acks = []
        for sub_id in due.subs:
            upto = self._streams.last_seq(sub_id)
            if upto:  # 0: nothing in order yet (or the stream was reset)
                acks.append([sub_id, upto])
        if acks:
            self.owner.send(mediator, "event-ack", {"acks": acks})
