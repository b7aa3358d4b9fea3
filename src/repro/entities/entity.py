"""CE and CAA base classes — the architectural design of Figure 4.

"Both entities share the RegisterInterface in order to facilitate
communication with a Range Service, while CAAs include the ConsumeInterface
for dealing with events. The ServiceInterface, implemented by the CE,
represents the 'well known' Advertisement interface. At the Concrete level,
CE or CAA developers need only to deal with the service they provide or the
events they receive."

The registration handshake implements Figure 5:

1. the component starts and announces itself on its machine
   (``component-up``, link-local broadcast);
2. the machine's Range Service replies ``range-offer`` naming the Registrar;
3. the component registers its profile with the Registrar;
4. the ``register-ack`` returns the Context Server address (CAAs submit
   queries there) and the Event Mediator address (CEs publish there), plus a
   lease. The component does not renew it itself: on the ack it joins the
   lease group of the Range Service whose offer it accepted, which renews
   every member on its machine in one heartbeat, and leaves the group when
   it stops, is evicted or is handed to another range.

Concrete subclasses override the hooks at the bottom of each class
(:meth:`ContextEntity.on_event`, :meth:`ContextEntity.handle_service`,
:meth:`ContextAwareApplication.on_event`, ...) and never touch the protocol.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional

from repro.core.errors import RegistrationError
from repro.core.ids import GUID
from repro.core.types import TypeSpec
from repro.entities.advertisement import Advertisement
from repro.entities.profile import Profile
from repro.events.event import ContextEvent
from repro.events.stream import (AckBatcher, StreamReassembler, offer_event,
                                 request_resync)
from repro.net.message import BROADCAST, Message
from repro.net.rpc import RequestManager
from repro.net.transport import Network, Process

logger = logging.getLogger(__name__)

#: retransmission budgets for the component-side RPCs that must survive a
#: lossy network (``resync``'s lives beside the reassembler)
REGISTER_RETRIES = 2
PUBLISH_RETRIES = 4
PUBLISH_ACK_TIMEOUT = 5.0


class BaseComponent(Process):
    """Shared RegisterInterface behaviour for CEs and CAAs."""

    #: overridden by subclasses; sent in the announce so the Registrar knows
    #: which addresses to return.
    component_kind = "component"

    def __init__(self, profile: Profile, host_id: str, network: Network):
        super().__init__(profile.entity_id, host_id, network, name=profile.name)
        self.profile = profile
        self.advertisements: List[Advertisement] = []
        self.requests = RequestManager(self)
        self.registered = False
        self.registrar: Optional[GUID] = None
        self.context_server: Optional[GUID] = None
        self.event_mediator: Optional[GUID] = None
        self.range_name: Optional[str] = None
        #: the Range Service renewing this component's lease, while registered
        self._lease_group = None
        self._params: Dict[str, Any] = {}
        #: restores publish order over the mediator's sequenced streams and
        #: asks the range's mediator for a resync while registered
        self.streams = StreamReassembler(
            self.scheduler, self._deliver_event,
            lambda sub_id: request_resync(
                self, self.event_mediator if self.registered else None,
                sub_id),
            metrics=network.obs.metrics)
        #: answers each mediator with cumulative acks of that prefix
        self.acks = AckBatcher(self, self.streams)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Announce presence on this machine (Figure 5, step 1)."""
        self.send(BROADCAST, "component-up", {"kind": self.component_kind})

    def stop(self) -> None:
        """Deregister (if registered) and leave the network."""
        if self.registered and self.registrar is not None:
            self.send(self.registrar, "deregister", {"entity": self.guid.hex})
        self._teardown_registration()
        self.requests.cancel_all()
        self.detach()

    def crash(self) -> None:
        """Vanish without deregistering — the failure-injection path."""
        self.registered = False
        self.acks.drop()
        self.streams.reset()
        self.requests.cancel_all()
        self.detach()

    def attach_to_range(self, registrar: GUID, context_server: GUID,
                        event_mediator: GUID, range_name: str) -> None:
        """Join a range without the Figure-5 handshake.

        Used for infrastructure-spawned components (converter CEs, template
        instances created by the Configuration Manager): the Context Server
        creates them already knowing the range's addresses, so the discovery
        broadcast would be theatre. The component still appears in the
        Registrar — the caller is responsible for recording it there.
        """
        self.registrar = registrar
        self.context_server = context_server
        self.event_mediator = event_mediator
        self.range_name = range_name
        self.registered = True
        self.on_registered()

    def _teardown_registration(self) -> None:
        self.registered = False
        self.registrar = None
        self.context_server = None
        self.event_mediator = None
        self.range_name = None
        # ack what arrived before the stream state is forgotten, so the old
        # mediator does not retransmit it into the void
        self.acks.flush()
        self.streams.reset()
        if self._lease_group is not None:
            self._lease_group.leave(self)
            self._lease_group = None

    # -- registration protocol ----------------------------------------------------

    def _handle_range_offer(self, message: Message) -> None:
        """Figure 5, step 2: a Range Service told us where the Registrar is.

        An offer from a *different* range while still registered means the
        component's machine moved between ranges (Section 3.4): leave the old
        range and take the offer — the old range's eviction notice may still
        be in flight.
        """
        try:
            registrar = GUID.from_hex(message.payload["registrar"])
        except (KeyError, TypeError, ValueError) as exc:
            logger.info("%s: dropping malformed range-offer: %r",
                        self.name, exc)
            return
        offered_range = message.payload.get("range")
        if self.registered:
            if offered_range == self.range_name:
                return
            if self.registrar is not None:
                self.send(self.registrar, "deregister", {"entity": self.guid.hex})
            self._teardown_registration()
        self._register_with(registrar, message.sender)

    def _register_with(self, registrar: GUID, range_service: GUID) -> None:
        self.registrar = registrar
        self.requests.request(
            registrar,
            "register",
            {
                "kind": self.component_kind,
                "profile": self.profile.to_wire(),
                "advertisements": [ad.to_wire() for ad in self.advertisements],
            },
            on_reply=lambda reply: self._handle_register_ack(reply,
                                                             range_service),
            on_timeout=self._handle_register_timeout,
            retries=REGISTER_RETRIES,
        )

    def _handle_register_ack(self, reply: Message, range_service: GUID) -> None:
        """Take the offered range, or log an ack that refuses or lacks an
        address or a positive lease: that one changes nothing but
        clearing the registrar of a component not yet registered."""
        payload = reply.payload
        try:
            if not payload.get("ok", False):
                raise RegistrationError(payload.get("error"))
            context_server = GUID.from_hex(payload["context_server"])
            event_mediator = GUID.from_hex(payload["event_mediator"])
            lease = payload["lease"]
            if (isinstance(lease, bool) or not isinstance(lease, (int, float))
                    or not 0 < lease < float("inf")):
                raise RegistrationError(f"bad lease {lease!r}")
        except (RegistrationError, KeyError, TypeError, ValueError) as exc:
            logger.warning("%s registration refused: %r", self.name, exc)
            if not self.registered:
                self.registrar = None
            return
        self.registered = True
        # two ranges may offer on one machine: the later ack wins whole
        self.registrar = reply.sender
        self.context_server = context_server
        self.event_mediator = event_mediator
        self.range_name = payload.get("range")
        # a same-machine call: the offering daemon is a process on this host
        if self._lease_group is not None:
            self._lease_group.leave(self)
        self._lease_group = self.network.process(range_service)
        if self._lease_group is not None:
            self._lease_group.join(self, lease)
        logger.debug("%s registered in range %s", self.name, self.range_name)
        self.on_registered()

    def _handle_register_timeout(self) -> None:
        logger.warning("%s registration timed out", self.name)
        self.registrar = None

    def _handle_deregistered(self, message: Message) -> None:
        """The Registrar evicted us (lease expiry or range departure).

        Only a notice from the registrar this component is registered with
        counts. After a handoff the old range's eviction may still be in
        flight; and one eviction can produce two notices (``lease-expired``
        plus the ``not-registered`` answer to a renewal that was in flight),
        the second of which must not clear ``registrar`` under a
        re-registration that has already begun.
        """
        if not (self.registered and message.sender == self.registrar):
            return
        self._teardown_registration()
        self.on_deregistered(message.payload.get("reason", ""))

    # -- parameters ------------------------------------------------------------------

    def set_param(self, name: str, value: Any) -> None:
        """Bind a profile parameter (done by the resolver at configuration
        time, or directly in tests)."""
        if name not in self.profile.params:
            raise RegistrationError(
                f"{self.name} has no parameter {name!r}; "
                f"declared: {sorted(self.profile.params)}"
            )
        self._params[name] = value
        self.on_param_set(name, value)

    def get_param(self, name: str, default: Any = None) -> Any:
        return self._params.get(name, default)

    # -- message dispatch --------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.requests.dispatch_reply(message):
            return
        if message.kind == "range-offer":
            self._handle_range_offer(message)
        elif message.kind == "deregistered":
            self._handle_deregistered(message)
        elif message.kind == "set-param":
            # sent, not requested: nobody waits, so a bad one is dropped
            name = message.payload.get("name")
            if (isinstance(name, str) and name in self.profile.params
                    and "value" in message.payload):
                self.set_param(name, message.payload["value"])
            else:
                logger.info("%s: dropping malformed set-param %r",
                            self.name, message.payload)
        else:
            self.handle_component_message(message)

    # -- event intake (ConsumeInterface plumbing) -------------------------------------

    def handle_event_message(self, message: Message) -> None:
        """Reassemble, hand to the consume hook, and owe the sender an ack,
        per pair of the message's ``subs``
        (:func:`~repro.events.stream.offer_event`).

        The mediator holds each pair in an unacked window until acked; the
        reassembler restores publish order, drops the duplicates a
        retransmission produces, and requests a resync for holes that
        outlive the mediator's retransmission budget. The
        delivery is then noted with :attr:`acks`, which sends the mediator
        one cumulative ``event-ack`` of the in-order prefix per batch —
        duplicates included, so a lost ack is answered again.
        """
        offer_event(self, message, ContextEvent.from_wire)

    def _deliver_event(self, sub_id: int,
                       event: Optional[ContextEvent]) -> None:
        """The reassembler's in-order callback (None: the event did not
        parse and its seq is only consumed)."""
        if event is not None:
            self._consume_event(event, sub_id)

    def _consume_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        """Subclass hook: an in-order, deduplicated event is ready."""
        self.on_event(event, sub_id)

    # -- hooks ---------------------------------------------------------------------------

    def on_registered(self) -> None:
        """Called once registration completes."""

    def on_deregistered(self, reason: str) -> None:
        """Called when the Registrar evicts this component."""

    def on_param_set(self, name: str, value: Any) -> None:
        """Called when a profile parameter is bound."""

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        """A subscribed event arrived (in order, exactly once)."""

    def handle_component_message(self, message: Message) -> None:
        """Kind-specific traffic for subclasses; default handles events."""
        if message.kind == "event":
            self.handle_event_message(message)
        else:
            logger.debug("%s ignoring %s", self.name, message)


class ContextEntity(BaseComponent):
    """A producer (and possibly consumer) of typed context events.

    Concrete CEs override :meth:`on_event` (their event inputs),
    :meth:`handle_service` (their Advertisement operations) and use
    :meth:`publish` to emit events.
    """

    component_kind = "ce"

    def __init__(self, profile: Profile, host_id: str, network: Network,
                 advertisements: Optional[List[Advertisement]] = None):
        super().__init__(profile, host_id, network)
        self.advertisements = list(advertisements or [])
        self.events_published = 0
        self.events_consumed = 0

    # -- producing -------------------------------------------------------------

    def publish(self, spec: TypeSpec, value: Any,
                attributes: Optional[Dict[str, Any]] = None) -> Optional[ContextEvent]:
        """Emit a typed event to the range's Event Mediator.

        Returns None (and drops the event) when not yet registered — a real
        sensor booting before its range exists has nowhere to publish.
        """
        if not self.registered or self.event_mediator is None:
            logger.debug("%s dropping publish before registration", self.name)
            return None
        event = ContextEvent(
            spec=spec,
            value=value,
            source=self.guid,
            timestamp=self.now,
            attributes=attributes or {},
        )
        # acknowledged publish: the mediator answers publish-ack, so a
        # publication lost on the wire is retransmitted (and deduplicated
        # receiver-side) instead of silently vanishing from every stream
        self.requests.request(
            self.event_mediator, "publish", {"event": event.to_wire()},
            timeout=PUBLISH_ACK_TIMEOUT, retries=PUBLISH_RETRIES)
        self.events_published += 1
        return event

    # -- consuming / serving ------------------------------------------------------

    def handle_component_message(self, message: Message) -> None:
        if message.kind == "service-invoke":
            operation = message.payload.get("operation", "")
            args = message.payload.get("args", {})
            if not any(ad.supports(operation) for ad in self.advertisements):
                self.reply(message, "service-result",
                           {"ok": False, "error": f"unknown operation {operation!r}"})
                return
            if not isinstance(args, dict):
                self.reply(message, "service-result",
                           {"ok": False, "error": "args is not an object"})
                return
            result = self.handle_service(operation, args)
            self.reply(message, "service-result", {"ok": True, "result": result})
        else:
            super().handle_component_message(message)

    def _consume_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        self.events_consumed += 1
        self.on_event(event, sub_id)

    # -- hooks ----------------------------------------------------------------------

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        """An input event arrived (this CE is mid-graph in a configuration)."""

    def handle_service(self, operation: str, args: Dict[str, Any]) -> Any:
        """Execute an Advertisement operation; the return value is shipped
        back in the ``service-result`` reply."""
        raise NotImplementedError(f"{self.name} advertises no operations")


class ContextAwareApplication(BaseComponent):
    """An application that pulls or is pushed contextual information.

    Section 3.1: "A CAA communicates with the CS by way of a Query". The
    class supports offline operation (Section 5: CAPA stores Bob's query
    while he is on the train): queries queued with :meth:`queue_query` are
    submitted automatically once registration completes.
    """

    component_kind = "caa"

    def __init__(self, profile: Profile, host_id: str, network: Network):
        super().__init__(profile, host_id, network)
        self._offline_queue: List[Dict[str, Any]] = []
        self.query_acks: Dict[str, Dict[str, Any]] = {}
        self.results: List[Dict[str, Any]] = []
        self.events: List[ContextEvent] = []
        #: query id -> open ``query.submit`` root span, closed at ack/timeout
        self._query_spans: Dict[str, Any] = {}

    # -- querying ---------------------------------------------------------------

    def submit_query(self, query) -> None:
        """Send a query to the range's Context Server (requires registration)."""
        if not self.registered or self.context_server is None:
            raise RegistrationError(f"{self.name} is not in a range; queue the query instead")
        tracer = self.network.obs.tracer
        # Root span of the whole query trace. The request below is stamped
        # with it while it is current; we then leave (not close) it so it
        # can span the full round trip until the ack arrives.
        span = tracer.start("query.submit", app=self.name,
                            query=query.query_id, mode=query.mode.value)
        try:
            self.requests.request(
                self.context_server,
                "query",
                {"query": query.to_wire()},
                on_reply=self._handle_query_ack,
                on_timeout=lambda: self._query_timed_out(query.query_id),
            )
        finally:
            tracer.leave(span)
        if span is not None:
            self._query_spans[query.query_id] = span

    def _query_timed_out(self, query_id: str) -> None:
        span = self._query_spans.pop(query_id, None)
        if span is not None:
            span.set(outcome="timeout")
            self.network.obs.tracer.end(span)
        self.on_query_failed(query_id, "timeout")

    def queue_query(self, query) -> None:
        """Store a query for submission at next registration (offline mode)."""
        if self.registered:
            self.submit_query(query)
        else:
            self._offline_queue.append({"query": query})

    def cancel_query(self, query_id: str) -> None:
        if self.registered and self.context_server is not None:
            self.send(self.context_server, "cancel-query", {"query_id": query_id})

    def on_registered(self) -> None:
        pending, self._offline_queue = self._offline_queue, []
        for item in pending:
            self.submit_query(item["query"])

    def _handle_query_ack(self, reply: Message) -> None:
        payload = reply.payload
        query_id = payload.get("query_id", "")
        self.query_acks[query_id] = payload
        span = self._query_spans.pop(query_id, None)
        if span is not None:
            span.set(outcome=payload.get("status", "acked"),
                     ok=payload.get("ok", False))
            self.network.obs.tracer.end(span)
        if not payload.get("ok", False):
            self.on_query_failed(query_id, payload.get("error", "refused"))

    # -- receiving --------------------------------------------------------------------

    def handle_component_message(self, message: Message) -> None:
        if message.kind == "query-result":
            self.results.append(dict(message.payload))
            self.on_query_result(message.payload.get("query_id", ""),
                                 message.payload)
        else:
            super().handle_component_message(message)

    def _consume_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        self.events.append(event)
        self.on_event(event, sub_id)

    # -- hooks ---------------------------------------------------------------------------

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        """A subscribed event arrived (ConsumeInterface)."""

    def on_query_result(self, query_id: str, payload: Dict[str, Any]) -> None:
        """A one-shot query answer arrived."""

    def on_query_failed(self, query_id: str, error: str) -> None:
        """A query was refused or timed out."""
        logger.warning("%s query %s failed: %s", self.name, query_id, error)

    # -- conveniences for tests/examples ------------------------------------------------

    def last_event_value(self) -> Any:
        return self.events[-1].value if self.events else None

    def events_of_type(self, type_name: str) -> List[ContextEvent]:
        return [event for event in self.events if event.type_name == type_name]
