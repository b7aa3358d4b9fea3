"""Subscriber-side reassembly and acknowledgement of reliable event streams.

A reliable mediator (``EventMediator(reliable=True)``) stamps every delivery
with a per-subscription sequence number. The :class:`StreamReassembler`
sits between a subscriber's transport and its event hook and restores the
publish order the mediator produced:

* ``seq == last + 1``  — deliver, then flush any buffered successors;
* ``seq <= last``      — a duplicate (a retransmission raced the ack): drop;
* ``seq >  last + 1``  — a hole. Buffer the arrival; if the hole is still
  open after ``resync_after`` (i.e. the mediator's own retransmissions did
  not fill it), ask the mediator to **resync**: it replays the retained
  events matching the subscription under fresh sequence numbers and names
  the baseline to fast-forward past, so a stream with genuinely lost events
  heals instead of staying silent forever.

The :class:`AckBatcher` beside it answers the mediator. Acks are
*cumulative*: one ``event-ack {"acks": [[sub_id, upto], ...]}`` per
mediator names, for every subscription that received something, the
reassembler's in-order prefix ``upto`` — every seq up to it has arrived.
It is sent once :data:`EVENT_ACK_EVERY` sequenced deliveries from that
mediator are pending, or :data:`EVENT_ACK_DELAY` after the first of them,
whichever comes first. A duplicate counts as a delivery too, so a lost ack
is repaired by the retransmission it provokes.

Deliveries without a sequence number (an unreliable mediator, or raw test
messages) bypass the machinery entirely: nothing is buffered or acked.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, Optional

from repro.core.ids import GUID
from repro.net.sim import Scheduler, Timer
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

#: default quiet time on an open hole before a resync is requested; sized
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
                 deliver: Callable[[Any], None],
                 request_resync: Optional[Callable[[int], None]] = None,
                 resync_after: float = DEFAULT_RESYNC_AFTER,
                 metrics=None):
        if resync_after <= 0:
            raise ValueError(f"non-positive resync_after: {resync_after}")
        self._scheduler = scheduler
        self._deliver = deliver
        self._request_resync = request_resync
        self.resync_after = resync_after
        self._streams: Dict[int, _SubStream] = {}
        self.dup_dropped = 0
        self.gaps_detected = 0
        self.resyncs_requested = 0
        metrics = metrics or MetricsRegistry()
        self._gap_counter = metrics.counter(
            "mediator.seq.gaps",
            "sequence holes opened in subscriber streams").series()
        self._dup_counter = metrics.counter(
            "mediator.seq.dup_dropped",
            "stale or duplicate sequenced deliveries dropped").series()
        self._resync_counter = metrics.counter(
            "mediator.seq.resyncs",
            "resync requests issued for holes that outlived retransmission"
        ).series()

    # -- ingest ---------------------------------------------------------------

    def offer(self, sub_id: Optional[int], seq: Optional[int],
              payload: Any) -> bool:
        """Feed one arrival; returns True when delivered immediately."""
        if seq is None:
            self._deliver(payload)
            return True
        stream = self._streams.setdefault(sub_id, _SubStream())
        if seq <= stream.last or seq in stream.pending:
            self.dup_dropped += 1
            self._dup_counter.inc()
            return False
        if seq == stream.last + 1:
            stream.last = seq
            self._deliver(payload)
            self._flush(stream)
            return True
        if not stream.pending:
            self.gaps_detected += 1
            self._gap_counter.inc()
        stream.pending[seq] = payload
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
            self._deliver(stream.pending.pop(seq))
        if baseline > stream.last:
            stream.last = baseline
        self._flush(stream)
        if stream.pending:
            self._arm(sub_id, stream)

    def resync_failed(self, sub_id: int) -> None:
        """The resync RPC itself expired; re-arm so the stream retries."""
        stream = self._streams.get(sub_id)
        if stream is not None and stream.pending:
            self._arm(sub_id, stream)

    def resync_answered(self, sub_id: int, payload: Dict[str, Any]) -> None:
        """Apply a ``resync-ack``: fast-forward, or drop a dead stream.

        A refusal means the mediator no longer knows the subscription; its
        stream is dead and any buffered fragments with it.
        """
        if payload.get("ok"):
            self.resync_done(sub_id, payload.get("seq", 0))
        else:
            self.forget(sub_id)

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

    def _flush(self, stream: _SubStream) -> None:
        while stream.last + 1 in stream.pending:
            stream.last += 1
            self._deliver(stream.pending.pop(stream.last))
        if not stream.pending and stream.gap_timer is not None:
            stream.gap_timer.cancel()
            stream.gap_timer = None

    def _arm(self, sub_id: int, stream: _SubStream) -> None:
        if self._request_resync is None or stream.gap_timer is not None:
            return
        stream.gap_timer = self._scheduler.schedule(
            self.resync_after, self._gap_expired, sub_id)

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
        """A sequenced delivery for ``sub_id`` arrived from ``mediator``."""
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
