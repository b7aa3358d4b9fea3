"""Request/response correlation over the message transport.

The paper's prototype used "a combination of distributed events and point to
point communication". The point-to-point half needs request/reply semantics
(register -> ack, query -> results, profile request -> profile). The
:class:`RequestManager` gives a :class:`~repro.net.transport.Process` that
capability: it assigns callbacks to outgoing requests and routes replies (or
timeouts) back to them. A callback reads ``reply.fields``, checked on
arrival against the reply's :mod:`repro.net.wire` row; a reply that fails
it is dropped there, a lost reply, so ``on_timeout`` fires instead.

Reliability: the transport drops silently (UDP-style), so a request can be
retransmitted up to a bounded budget (``retries=``) with exponential
backoff and deterministic jitter before ``on_timeout`` fires. Retransmitted
copies carry the *original* ``msg_id`` — the receiver's ``(sender, msg_id)``
dedup cache (see :meth:`repro.net.transport.Process.deliver`) suppresses the
duplicates and replays the cached reply, so at-least-once retransmission
plus receiver dedup yields exactly-once observable delivery. The default
budget is zero retries, preserving plain fire-and-expire semantics for
callers that implement their own policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from repro.core.ids import GUID
from repro.net.message import Message
from repro.net.sim import Timer
from repro.net.transport import Process

#: reply wait of a request that names no ``timeout=``
DEFAULT_TIMEOUT = 50.0
#: retransmissions of a request that names no ``retries=``
DEFAULT_RETRIES = 0
#: each retransmission's wait is the previous one's times this factor
BACKOFF_FACTOR = 2.0
#: a retransmission wait is stretched by up to this fraction, drawn from a
#: stream seeded by the owner's GUID
JITTER = 0.25


@dataclass(slots=True)
class PendingRequest:
    """Book-keeping for one in-flight request."""

    msg_id: int
    kind: str
    on_reply: Callable[[Message], None]
    on_timeout: Optional[Callable[[], None]] = None
    timer: Optional[Timer] = None
    #: the original wire message, kept so retransmissions reuse its msg_id
    message: Optional[Message] = None
    #: transmissions so far (the initial send counts as 1)
    attempts: int = 1
    max_retries: int = 0
    base_timeout: float = 0.0


class RequestManager:
    """Correlates replies with requests for one owning process.

    Usage: the owner keeps one as its ``requests`` attribute and calls
    :meth:`request` instead of ``Process.send``; ``Process.on_message`` then
    hands every reply that arrives to :meth:`dispatch_reply` before any
    ``_handle_<verb>`` method sees it::

        self.requests = RequestManager(self)
        self.requests.request(peer, "query", payload,
                              on_reply=self._query_acked)
    """

    def __init__(self, owner: Process):
        self.owner = owner
        #: the jitter stream; the first retransmission creates it
        self._rng: Optional[random.Random] = None
        self._pending: Dict[int, PendingRequest] = {}
        self.timeouts = 0
        self.completed = 0
        self.retries = 0
        metrics = owner.network.obs.metrics
        self._retry_attempts_counter = metrics.counter("net.retry.attempts")
        self._retry_exhausted_counter = metrics.counter("net.retry.exhausted")
        self._retry_recovered_counter = metrics.counter("net.retry.recovered")

    def request(
        self,
        recipient: GUID,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        on_reply: Optional[Callable[[Message], None]] = None,
        on_timeout: Optional[Callable[[], None]] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> PendingRequest:
        """Send ``kind``/``payload`` to ``recipient`` expecting a reply.

        ``timeout`` is the first reply wait (:data:`DEFAULT_TIMEOUT` when
        omitted) and ``retries`` the retransmission budget
        (:data:`DEFAULT_RETRIES`).
        """
        if timeout is None:
            timeout = DEFAULT_TIMEOUT
        elif timeout <= 0:
            raise ValueError(f"non-positive timeout: {timeout}")
        if retries is None:
            retries = DEFAULT_RETRIES
        elif retries < 0:
            raise ValueError(f"negative retry budget: {retries}")
        message = self.owner.send(recipient, kind, payload)
        pending = PendingRequest(
            msg_id=message.msg_id,
            kind=kind,
            on_reply=on_reply or (lambda _reply: None),
            on_timeout=on_timeout,
            message=message,
            max_retries=retries,
            base_timeout=timeout,
        )
        pending.timer = self.owner.scheduler.schedule(
            pending.base_timeout, self._expire, pending)
        self._pending[message.msg_id] = pending
        return pending

    def dispatch_reply(self, message: Message) -> bool:
        """Consume ``message`` if it answers a pending request.

        Returns True when consumed; the owner should then stop processing it.
        """
        if message.reply_to is None:
            return False
        # a request leaves the book when it is answered, times out or is
        # cancelled, and its timer is cancelled with it: a late reply finds
        # nothing here and is dropped, never answered twice
        pending = self._pending.pop(message.reply_to, None)
        if pending is None:
            return False
        if pending.timer is not None:
            pending.timer.cancel()
        self.completed += 1
        if pending.attempts > 1:
            self._retry_recovered_counter.inc(kind=pending.kind)
        pending.on_reply(message)
        return True

    def cancel_all(self) -> None:
        """Drop every in-flight request without firing callbacks (shutdown)."""
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def _expire(self, pending: PendingRequest) -> None:
        if pending.attempts <= pending.max_retries:
            self._retransmit(pending)
            return
        self._pending.pop(pending.msg_id, None)
        self.timeouts += 1
        if pending.max_retries:
            self._retry_exhausted_counter.inc(kind=pending.kind)
        if pending.on_timeout is not None:
            pending.on_timeout()

    def _retransmit(self, pending: PendingRequest) -> None:
        """Send a fresh copy carrying the original msg_id, grow the window."""
        pending.attempts += 1
        self.retries += 1
        self._retry_attempts_counter.inc(kind=pending.kind)
        self.owner.network.send(replace(pending.message))
        if self._rng is None:
            # seeded from the owner's GUID: deterministic per process,
            # and independent of the network's latency/drop stream
            self._rng = random.Random(self.owner.guid.value & 0xFFFFFFFFFFFF)
        window = (pending.base_timeout
                  * BACKOFF_FACTOR ** (pending.attempts - 1)
                  * (1.0 + JITTER * self._rng.random()))
        pending.timer = self.owner.scheduler.schedule(
            window, self._expire, pending)
