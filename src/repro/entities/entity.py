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

Each verb a component receives has one ``_handle_<verb>`` method (the
``range-offer``, ``deregistered`` and ``event`` handlers
here, ``service-invoke`` on the CE, ``query-result`` on the CAA), which
``Process.on_message`` dispatches onto; a reply goes to the callback of
its request (``_register_acked``, ``_query_acked``). Concrete subclasses
override the hooks at the bottom of each class
(:meth:`ContextEntity.on_event`, :meth:`ContextEntity.handle_service`,
:meth:`ContextAwareApplication.on_event`, ...) and never touch the protocol.

The hooks are the whole ConsumeInterface: an in-order event goes straight
to ``on_event``, and ``on_query_result`` gets the parsed fields of the
``query-result`` row. A component keeps no history of what it consumed;
an application that needs one records it in its hooks.
"""

from __future__ import annotations

import itertools
import logging
from typing import Any, Dict, List, Optional

from repro.core.errors import RegistrationError
from repro.core.ids import GUID
from repro.core.types import TypeSpec
from repro.entities.advertisement import Advertisement
from repro.entities.profile import Profile
from repro.events.event import ContextEvent
from repro.events.stream import (AckBatcher, StreamKey, StreamReassembler,
                                 offer_event, request_resync)
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
        #: restores publish order over each mediator's sequenced streams and
        #: asks the stream's own mediator for a resync while registered
        self.streams = StreamReassembler(
            self.scheduler, self._deliver_event, self._resync,
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
        if self.registered:
            if message.fields["range"] == self.range_name:
                return
            if self.registrar is not None:
                self.send(self.registrar, "deregister", {"entity": self.guid.hex})
            self._teardown_registration()
        self._register_with(message.fields["registrar"], message.sender)

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
            on_reply=lambda reply: self._register_acked(reply, range_service),
            on_timeout=lambda: self._register_failed("timed out"),
            retries=REGISTER_RETRIES,
        )

    def _register_acked(self, reply: Message, range_service: GUID) -> None:
        """Take the offered range, or fail on a refusal (an ack that fails
        its wire row never gets here: the request times out)."""
        fields = reply.fields
        if not fields["ok"]:
            self._register_failed(f"refused: {fields.get('error')}")
            return
        self.registered = True
        # two ranges may offer on one machine: the later ack wins whole
        self.registrar = reply.sender
        self.context_server = fields["context_server"]
        self.event_mediator = fields["event_mediator"]
        self.range_name = fields.get("range")
        # a same-machine call: the offering daemon is a process on this host
        if self._lease_group is not None:
            self._lease_group.leave(self)
        self._lease_group = self.network.process(range_service)
        if self._lease_group is not None:
            self._lease_group.join(self, fields["lease"])
        logger.debug("%s registered in range %s", self.name, self.range_name)
        self.on_registered()

    def _register_failed(self, reason: str) -> None:
        """Refused or timed out: a component not yet registered forgets the
        registrar; one that is keeps the range an earlier ack gave it."""
        logger.warning("%s registration %s", self.name, reason)
        if not self.registered:
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
        self.on_deregistered(message.fields.get("reason", ""))

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

    # -- event intake (ConsumeInterface plumbing) -------------------------------------

    def _handle_event(self, message: Message) -> None:
        """Reassemble, hand to the consume hook, and owe the sender an ack,
        per pair of the message's ``subs``
        (:func:`~repro.events.stream.offer_event`).

        The mediator holds each pair in an unacked window until acked; the
        reassembler restores publish order, drops the duplicates a
        retransmission produces, and requests a resync for a hole still
        open after :data:`~repro.events.stream.DEFAULT_RESYNC_AFTER`. The
        delivery is then noted with :attr:`acks`, which sends the mediator
        one cumulative ``event-ack`` of the in-order prefix per batch —
        duplicates included, so a lost ack is answered again.
        """
        offer_event(self, message, ContextEvent.from_wire)

    def _deliver_event(self, key: StreamKey,
                       event: Optional[ContextEvent]) -> None:
        """The reassembler's in-order callback (None: the event did not
        parse and its seq is only consumed)."""
        if event is not None:
            self.on_event(event, key[1])

    def _resync(self, key: StreamKey) -> None:
        if self.registered:
            request_resync(self, key)

    # -- hooks ---------------------------------------------------------------------------

    def on_registered(self) -> None:
        """Called once registration completes."""

    def on_deregistered(self, reason: str) -> None:
        """Called when the Registrar evicts this component."""

    def on_param_set(self, name: str, value: Any) -> None:
        """Called when a profile parameter is bound."""

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        """A subscribed event arrived (in order, exactly once)."""


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

    def _handle_service_invoke(self, message: Message) -> None:
        operation = message.fields["operation"]
        if not any(ad.supports(operation) for ad in self.advertisements):
            self.reply(message, "service-result",
                       {"ok": False, "error": f"unknown operation {operation!r}"})
            return
        result = self.handle_service(operation, message.fields.get("args", {}))
        self.reply(message, "service-result", {"ok": True, "result": result})

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
    submitted automatically once registration completes. An unnamed query
    is named ``f"{name}:{n}"`` (``n`` from 1) when submitted or queued.
    """

    component_kind = "caa"

    def __init__(self, profile: Profile, host_id: str, network: Network):
        super().__init__(profile, host_id, network)
        self._offline_queue: List[Dict[str, Any]] = []
        self.query_acks: Dict[str, Dict[str, Any]] = {}
        #: query id -> open ``query.submit`` root span, closed at ack/timeout
        self._query_spans: Dict[str, Any] = {}
        #: the number of each query this application names
        self._query_numbers = itertools.count(1)

    # -- querying ---------------------------------------------------------------

    def _name(self, query) -> None:
        if query.query_id is None:
            query.query_id = f"{self.name}:{next(self._query_numbers)}"

    def submit_query(self, query) -> None:
        """Send a query to the range's Context Server (requires registration)."""
        if not self.registered or self.context_server is None:
            raise RegistrationError(f"{self.name} is not in a range; queue the query instead")
        self._name(query)
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
                on_reply=lambda reply: self._query_acked(query.query_id, reply),
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
        self._name(query)
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

    def _query_acked(self, query_id: str, reply: Message) -> None:
        fields = reply.fields
        self.query_acks[query_id] = fields
        span = self._query_spans.pop(query_id, None)
        if span is not None:
            span.set(outcome=fields.get("status", "acked"), ok=fields["ok"])
            self.network.obs.tracer.end(span)
        if not fields["ok"]:
            self.on_query_failed(query_id, fields.get("error", "refused"))

    # -- receiving --------------------------------------------------------------------

    def _handle_query_result(self, message: Message) -> None:
        self.on_query_result(message.fields["query_id"], message.fields)

    # -- hooks ---------------------------------------------------------------------------

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        """A subscribed event arrived (ConsumeInterface)."""

    def on_query_result(self, query_id: str, fields: Dict[str, Any]) -> None:
        """A one-shot query answer arrived: the parsed fields of its
        ``query-result`` (``ok``, and ``error``, ``mode``, ``profiles``,
        ``candidates`` or ``selected`` as the answer carries them)."""

    def on_query_failed(self, query_id: str, error: str) -> None:
        """A query was refused or timed out."""
        logger.warning("%s query %s failed: %s", self.name, query_id, error)
