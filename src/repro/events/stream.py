"""Subscriber-side reassembly and acknowledgement of event streams.

A mediator sends a subscriber one ``event`` per publish, ``{"event": <wire
event>, "subs": [[sub_id, seq], ...]}``: every subscription the event
matched, an int ``sub_id`` with a non-bool int ``seq >= 1`` (checked where
the message arrives, :mod:`repro.net.wire`). Each mediator numbers its own
subscriptions, so a stream's key is ``(mediator, sub_id)``.
:func:`offer_event` parses the event once and offers each pair to the
:class:`StreamReassembler`, which restores the publish order the mediator
produced:

* ``seq == last + 1``  — deliver, then flush any buffered successors;
* ``seq <= last``      — a duplicate (a retransmission raced the ack): drop;
* ``seq >  last + 1``  — a hole. Buffer the arrival; if the hole is still
  open after :data:`DEFAULT_RESYNC_AFTER` (four of the mediator's
  retransmission rounds did not fill it; it may still send more), ask the
  mediator that sent the stream to **resync**
  (:func:`request_resync`): it replays the retained events matching the
  subscription under fresh sequence numbers and names the baseline to
  fast-forward past, so a stream with genuinely lost events heals instead
  of staying silent forever (a ``resync-ack`` that fails its wire row is
  lost: the resync expires and re-arms).

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
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.ids import GUID
from repro.net.sim import Scheduler, Timer
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

#: quiet time on an open hole before a resync is requested. From
#: repro.events.mediator's DEFAULT_ACK_TIMEOUT, DELIVERY_BACKOFF and
#: DELIVERY_JITTER, a delivery's fourth retransmission round goes out at
#: most 59.44 after its first send and the fifth at least 79.12 after it:
#: 60 falls between them, well inside the mediator's whole window (~193 to
#: ~240), so a hole four rounds did not fill is resynced while the
#: mediator may still be retransmitting
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

#: a stream's key: the ``value`` of the mediator GUID that sends it and its
#: sub_id there (two ints, as in ``Process._seen_messages``)
StreamKey = Tuple[int, int]


def offer_event(owner, message, parse: Callable[[Any], Any]) -> bool:
    """Offer each ``[sub_id, seq]`` of an ``event`` (its ``subs`` checked
    on arrival) to ``owner.streams`` as stream ``(sender.value, sub_id)``,
    with the event ``parse``d once (None if it does not parse: its seqs
    are still consumed), noting each with ``owner.acks``; True if any pair
    was offered."""
    try:
        item = parse(message.fields.get("event"))
    except (KeyError, TypeError, ValueError) as exc:
        logger.info("%s: dropping an event that does not parse %r: %r",
                    owner.name, message.payload, exc)
        item = None
    mediator = message.sender
    subs = message.fields["subs"]
    for sub_id, seq in subs:
        owner.streams.offer((mediator.value, sub_id), seq, item)
        owner.acks.note(mediator, sub_id)
    return bool(subs)


def request_resync(owner, key: StreamKey) -> None:
    """Ask the mediator of stream ``key`` to resync it through
    ``owner.requests``, and hand the answer to ``owner.streams``."""
    owner.requests.request(
        GUID(key[0]), "resync", {"sub_id": key[1]},
        on_reply=lambda reply: owner.streams.resync_answered(
            key, reply.fields),
        on_timeout=lambda: owner.streams.resync_failed(key),
        timeout=RESYNC_TIMEOUT, retries=RESYNC_RETRIES)


class _SubStream:
    """Per-subscription reorder state."""

    __slots__ = ("last", "pending", "gap_timer")

    def __init__(self) -> None:
        self.last = 0
        self.pending: Dict[int, Any] = {}
        self.gap_timer: Optional[Timer] = None


class StreamReassembler:
    """In-order, exactly-once delivery over per-stream seq numbers; a
    stream is named by its :data:`StreamKey`."""

    def __init__(self, scheduler: Scheduler,
                 deliver: Callable[[StreamKey, Any], None],
                 request_resync: Callable[[StreamKey], None], metrics=None):
        self._scheduler = scheduler
        self._deliver = deliver
        self._request_resync = request_resync
        self._streams: Dict[StreamKey, _SubStream] = {}
        self.dup_dropped = 0
        self.gaps_detected = 0
        self.resyncs_requested = 0
        metrics = MetricsRegistry() if metrics is None else metrics
        self._gap_counter = metrics.counter("mediator.seq.gaps").series()
        self._dup_counter = metrics.counter(
            "mediator.seq.dup_dropped").series()
        self._resync_counter = metrics.counter("mediator.seq.resyncs").series()

    # -- ingest ---------------------------------------------------------------

    def offer(self, key: StreamKey, seq: int, item: Any) -> bool:
        """Feed one arrival for ``key``; ``deliver(key, item)`` runs
        once it is in order. Returns True when delivered immediately."""
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _SubStream()
        if seq <= stream.last or seq in stream.pending:
            self.dup_dropped += 1
            self._dup_counter.inc()
            return False
        if seq == stream.last + 1:
            stream.last = seq
            self._deliver(key, item)
            self._flush(key, stream)
            return True
        if not stream.pending:
            self.gaps_detected += 1
            self._gap_counter.inc()
        stream.pending[seq] = item
        self._arm(key, stream)
        return False

    def resync_done(self, key: StreamKey, baseline: int) -> None:
        """The mediator replayed retained state under seqs > ``baseline``.

        Whatever buffered arrivals predate the baseline drain in order; the
        stream then fast-forwards past the unrecoverable hole.
        """
        stream = self._streams.get(key)
        if stream is None:
            return
        for seq in sorted(s for s in stream.pending if s <= baseline):
            self._deliver(key, stream.pending.pop(seq))
        if baseline > stream.last:
            stream.last = baseline
        self._flush(key, stream)
        if stream.pending:
            self._arm(key, stream)

    def resync_failed(self, key: StreamKey) -> None:
        """The resync RPC itself expired; re-arm so the stream retries."""
        stream = self._streams.get(key)
        if stream is not None and stream.pending:
            self._arm(key, stream)

    def resync_answered(self, key: StreamKey, fields: Dict[str, Any]) -> None:
        """Apply a ``resync-ack``'s ``fields``: fast-forward past its
        ``seq``, or, on a refusal (the mediator no longer knows the
        subscription), drop the dead stream and its buffered fragments."""
        if fields["ok"]:
            self.resync_done(key, fields["seq"])
        else:
            self.forget(key)

    def forget(self, key: StreamKey) -> None:
        """Drop all state for a dead subscription."""
        stream = self._streams.pop(key, None)
        if stream is not None and stream.gap_timer is not None:
            stream.gap_timer.cancel()

    def reset(self) -> None:
        for key in list(self._streams):
            self.forget(key)

    # -- introspection --------------------------------------------------------

    def last_seq(self, key: StreamKey) -> int:
        stream = self._streams.get(key)
        return stream.last if stream is not None else 0

    def open_holes(self, key: StreamKey) -> int:
        stream = self._streams.get(key)
        return len(stream.pending) if stream is not None else 0

    # -- internals ------------------------------------------------------------

    def _flush(self, key: StreamKey, stream: _SubStream) -> None:
        while stream.last + 1 in stream.pending:
            stream.last += 1
            self._deliver(key, stream.pending.pop(stream.last))
        if not stream.pending and stream.gap_timer is not None:
            stream.gap_timer.cancel()
            stream.gap_timer = None

    def _arm(self, key: StreamKey, stream: _SubStream) -> None:
        if stream.gap_timer is None:
            stream.gap_timer = self._scheduler.schedule(
                DEFAULT_RESYNC_AFTER, self._gap_expired, key)

    def _gap_expired(self, key: StreamKey) -> None:
        stream = self._streams.get(key)
        if stream is None:
            return
        stream.gap_timer = None
        if not stream.pending:
            return
        self.resyncs_requested += 1
        self._resync_counter.inc()
        logger.info("stream %s: hole outlived retransmission, resyncing",
                    key)
        self._request_resync(key)


class _DueAcks:
    """What one mediator is owed: subscriptions, deliveries, the flush."""

    __slots__ = ("mediator", "subs", "count", "timer")

    def __init__(self, mediator: GUID, timer: Timer) -> None:
        self.mediator = mediator
        self.subs: Dict[int, None] = {}
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
        #: mediator's ``guid.value`` -> what it is owed; at most one flush
        #: timer each
        self._due: Dict[int, _DueAcks] = {}

    def note(self, mediator: GUID, sub_id: int) -> None:
        """A delivery for ``mediator``'s ``sub_id`` arrived from it."""
        due = self._due.get(mediator.value)
        if due is None:
            due = self._due[mediator.value] = _DueAcks(
                mediator, self.owner.scheduler.schedule(
                    EVENT_ACK_DELAY, self._flush, mediator))
        due.subs[sub_id] = None
        due.count += 1
        if due.count >= EVENT_ACK_EVERY:
            self._flush(mediator)

    def flush(self) -> None:
        """Send every pending ack now (the subscriber is leaving a range)."""
        for due in list(self._due.values()):
            self._flush(due.mediator)

    def drop(self) -> None:
        """Forget every pending ack unsent (the subscriber crashed)."""
        for due in self._due.values():
            due.timer.cancel()
        self._due.clear()

    def _flush(self, mediator: GUID) -> None:
        due = self._due.pop(mediator.value, None)
        if due is None:
            return
        due.timer.cancel()
        acks = []
        for sub_id in due.subs:
            upto = self._streams.last_seq((mediator.value, sub_id))
            if upto:  # 0: nothing in order yet (or the stream was reset)
                acks.append([sub_id, upto])
        if acks:
            self.owner.send(mediator, "event-ack", {"acks": acks})
