"""Hosts, latency models and the simulated network transport.

A :class:`Network` owns a set of :class:`Host` machines and a registry of
:class:`Process` endpoints (each addressed by GUID, each living on one host).
``Network.send`` computes a delivery latency from the configured latency
model, applies loss and partition rules, and schedules
``recipient.deliver`` (duplicate suppression, the check of a payload
against its verb's row in :mod:`repro.net.wire`, then ``on_message``) on
the shared :class:`~repro.net.sim.Scheduler`. ``Process.on_message`` is
the one dispatcher: a reply goes to the callback of its request, any other
arrival to the recipient's ``_handle_<verb>`` method.

This is the substitution for the paper's Java/LAN prototype (see DESIGN.md):
the protocol logic above it is identical to what a socket deployment would
run, but time is simulated and every run is deterministic.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.core.errors import TransportError
from repro.core.ids import GUID, GuidFactory
from repro.net.message import BROADCAST, Message
from repro.net.sim import Scheduler
from repro.net.stats import MessageStats
from repro.net.wire import VERBS, Verb, WireError
from repro.obs.hub import Observability

if TYPE_CHECKING:
    from repro.net.rpc import RequestManager

logger = logging.getLogger(__name__)


@dataclass
class Host:
    """A machine in the deployment.

    ``position`` (metres, in the world's coordinate frame) feeds distance-
    based latency models and lets benchmarks co-locate hosts with physical
    ranges. ``up`` models whole-machine failure.
    """

    host_id: str
    position: Optional[Tuple[float, float]] = None
    up: bool = True


# -- latency models ----------------------------------------------------------


def _latency(name: str, value: float) -> float:
    """``value`` if non-negative and finite: ``schedule_delivery`` checks
    nothing per message, so a model refuses a bad term once, here."""
    if not 0 <= value < math.inf:
        raise ValueError(f"bad latency {name}: {value}")
    return value


class LatencyModel:
    """Strategy interface: delivery latency for one message between hosts."""

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant latency; the ablation baseline (latency model "off")."""

    def __init__(self, value: float = 1.0):
        self.value = _latency("value", value)

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from [low, high) — jittery LAN."""

    def __init__(self, low: float = 0.5, high: float = 2.0):
        self.low = _latency("low", low)
        self.high = _latency("high", high)
        if low > high:
            raise ValueError(f"bad latency range: [{low}, {high})")

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


class DistanceLatency(LatencyModel):
    """Base latency plus a per-metre term from host positions."""

    def __init__(self, base: float = 0.5, per_unit: float = 0.01):
        self.base = _latency("base", base)
        self.per_unit = _latency("per_unit", per_unit)

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        if source.position is None or destination.position is None:
            return self.base
        dx = source.position[0] - destination.position[0]
        dy = source.position[1] - destination.position[1]
        return self.base + self.per_unit * math.hypot(dx, dy)


class CampusLatency(LatencyModel):
    """The default model: cheap same-host, moderate same-site, jittered.

    Same host (loopback): ``local``. Different hosts: ``remote`` plus a
    uniform jitter term — roughly a switched campus LAN, which is the
    deployment the paper describes (Livingstone Tower).
    """

    def __init__(self, local: float = 0.05, remote: float = 1.0, jitter: float = 0.5):
        self.local = _latency("local", local)
        self.remote = _latency("remote", remote)
        self.jitter = _latency("jitter", jitter)

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        if source.host_id == destination.host_id:
            return self.local
        # what rng.uniform(0.0, jitter) computes, bit for bit, in one call
        return self.remote + self.jitter * rng.random()


# -- processes ---------------------------------------------------------------

#: sentinel distinguishing "never seen" from "seen, no reply cached"
_UNSEEN = object()

#: ``BROADCAST.value``: the transport compares ints, not GUIDs
_BROADCAST_VALUE = BROADCAST.value

#: the row of a kind the wire table does not declare (a test's own verb):
#: its payload must be an object, and nothing else is checked
_UNDECLARED = Verb()


class Process:
    """Base class for every middleware component that sends/receives messages.

    Subclasses handle a verb by defining ``_handle_<verb>(self, message)``
    (the verb with ``-`` written ``_``); :meth:`on_message` dispatches onto
    them. A process is attached to a network (which assigns nothing — the
    process carries its own GUID and host id) and unattached on
    failure/departure.

    A process numbers the messages it sends (and the replies it makes)
    from 1; that number is the ``msg_id``. Inbound delivery goes through
    :meth:`deliver`, which suppresses duplicate arrivals keyed on
    ``(sender.value, msg_id)``: retransmitted
    requests (see :class:`repro.net.rpc.RequestManager`) reach :meth:`on_message`
    exactly once, and if this process already replied to the original, the
    cached reply is re-sent so a lost *reply* is regenerated without
    re-executing the handler. The cache is a bounded LRU.
    """

    #: bound on remembered (sender, msg_id) arrivals per process
    DEDUP_CACHE = 1024
    #: the link-local announcement kinds (sent to ``BROADCAST``) it hears
    listens_for: Tuple[str, ...] = ()
    #: the correlator of this process's outgoing requests, if it makes any
    requests: Optional["RequestManager"] = None
    #: verb -> the name of its ``_handle_<verb>`` method; one table per class
    _handlers: Dict[str, str] = {}
    #: its host and that host's scheduler rank, cached by ``Network.attach``
    _host: Host
    _rank: int

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {name[len("_handle_"):].replace("_", "-"): name
                         for name in dir(cls) if name.startswith("_handle_")}

    def __init__(self, guid: GUID, host_id: str, network: "Network", name: str = ""):
        self.guid = guid
        self.host_id = host_id
        self.network = network
        self.name = name or f"proc-{guid}"
        #: (sender.value, msg_id) -> cached reply Message (or None when the
        #: handler produced no reply); insertion-ordered for LRU eviction.
        #: Two ints, not the GUID: a key of atomic items is one the garbage
        #: collector stops tracking, and the cache holds up to DEDUP_CACHE.
        self._seen_messages: "OrderedDict[Tuple[int, int], Optional[Message]]" = OrderedDict()
        #: the msg_id of each message this process sends, in order
        self._msg_ids = itertools.count(1)
        network.attach(self)

    # -- messaging helpers ---------------------------------------------------

    @property
    def scheduler(self) -> Scheduler:
        return self.network.scheduler

    @property
    def now(self) -> float:
        return self.network.scheduler.now

    def send(self, recipient: GUID, kind: str, payload: Optional[Dict[str, Any]] = None,
             reply_to: Optional[int] = None) -> Message:
        """Send a message; returns it (mainly so callers can keep msg_id)."""
        message = Message(
            sender=self.guid,
            recipient=recipient,
            kind=kind,
            payload=payload or {},
            msg_id=next(self._msg_ids),
            reply_to=reply_to,
        )
        self.network.send(message)
        return message

    def reply(self, original: Message, kind: str, payload: Optional[Dict[str, Any]] = None) -> Message:
        """Respond to ``original``, correlating via ``reply_to``."""
        message = self.send(original.sender, kind, payload,
                            reply_to=original.msg_id)
        key = (original.sender.value, original.msg_id)
        if key in self._seen_messages:
            # remember the reply so a retransmitted request regenerates it
            self._seen_messages[key] = message
        return message

    def deliver(self, message: Message) -> None:
        """Transport entry point: dedup by ``(sender.value, msg_id)``, check
        the payload against its verb's row, then handle.

        A duplicate arrival never reaches :meth:`on_message`; if the first
        arrival produced a reply, a fresh copy of that reply is re-sent —
        the requester's own dedup then collapses double acks. A request or
        reply that does not match its row in :data:`repro.net.wire.VERBS`
        (for every kind, one that is not a JSON object) is refused
        (:meth:`refuse`; a refused reply is a lost one). One that matches
        reaches the handler with its parsed fields on ``message.fields``.
        """
        key = (message.sender.value, message.msg_id)
        seen = self._seen_messages
        cached = seen.get(key, _UNSEEN)
        if cached is not _UNSEEN:
            seen.move_to_end(key)
            self.network.stats.record_duplicate(replayed=cached is not None)
            if cached is not None:
                self.network.send(replace(cached))
            return
        seen[key] = None
        if len(seen) > self.DEDUP_CACHE:  # it grows by one per arrival
            seen.popitem(last=False)
        try:
            message.fields = VERBS.get(message.kind, _UNDECLARED).parse(
                message.payload)
        except WireError as exc:
            self.refuse(message, exc)
            return
        self.on_message(message)

    def refuse(self, message: Message, error: Exception) -> None:
        """Log and count an arrival that does not match its verb's row;
        answer it with the verb's reply, its flag ``False``, if it has one
        and the payload is an object at all (one that is not is dropped)."""
        logger.info("%s: refusing %s: %s", self.name, message.kind, error)
        self.network.stats.record_malformed(message.kind)
        reply = VERBS.get(message.kind, _UNDECLARED).reply
        if reply is not None and type(message.payload) is dict:
            self.reply(message, reply,
                       {VERBS[reply].flag: False, "error": str(error)})

    def detach(self) -> None:
        """Remove this process from the network (crash or clean departure)."""
        self.network.detach(self.guid)

    def on_message(self, message: Message) -> None:
        """The one dispatch rule: a reply goes to the callback of the request
        it answers (:attr:`requests`), anything else to the
        ``_handle_<verb>`` method of its kind, fetched on the instance. A
        kind with no handler (a reply nobody waits for any more included)
        is logged and counted in ``net.messages.unhandled{kind}``."""
        if message.reply_to is not None and self.requests is not None \
                and self.requests.dispatch_reply(message):
            return
        name = self._handlers.get(message.kind)
        if name is None:
            logger.debug("%s: no handler for %s", self.name, message)
            self.network.stats.record_unhandled(message.kind)
            return
        getattr(self, name)(message)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} on {self.host_id}>"


class FunctionProcess(Process):
    """A process whose behaviour is a plain callable — handy in tests; it
    takes every arrival in place of the dispatch rule."""

    def __init__(self, guid: GUID, host_id: str, network: "Network",
                 handler: Callable[[Message], None], name: str = ""):
        super().__init__(guid, host_id, network, name)
        self._handler = handler

    def on_message(self, message: Message) -> None:
        self._handler(message)


# -- the network -------------------------------------------------------------


class Network:
    """The simulated transport connecting all hosts and processes.

    Failure model:

    * per-message drop probability (``drop_rate``),
    * partitions: each host belongs to a partition id; cross-partition
      messages are silently dropped (as on a real IP network),
    * host failure: messages to/from a downed host are dropped,
    * unknown recipient: counted as undeliverable and dropped (the paper's
      entities depart ranges; stale addresses are a normal condition).

    Silent drops mirror UDP-style delivery; request/reply users detect loss
    through :mod:`repro.net.rpc` timeouts.
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        latency_model: Optional[LatencyModel] = None,
        drop_rate: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate out of range: {drop_rate}")
        self.latency_model = latency_model or CampusLatency()
        self.scheduler = scheduler = scheduler or Scheduler()
        self.drop_rate = drop_rate
        self.seed = seed
        #: each source host draws latency/drop from its own stream, so the
        #: draw sequence depends only on that host's send history, not on
        #: how other hosts' sends interleave with it
        self._host_rngs: Dict[str, random.Random] = {}
        self.guids = GuidFactory(seed=seed ^ 0x5C1)
        #: the deployment-wide observability bundle (metrics and tracer)
        self.obs = Observability(scheduler)
        self.stats = MessageStats(self.obs.metrics)
        self._hosts: Dict[str, Host] = {}
        #: every table of processes is keyed by ``guid.value``: an int
        #: hashes and compares in C, a GUID through its Python methods
        self._processes: Dict[int, Process] = {}
        #: host id -> processes living there, in attach order
        self._processes_by_host: Dict[str, Dict[int, Process]] = {}
        #: (host id, announcement kind) -> the processes there that declared
        #: it, in attach order: the only recipients a broadcast has
        self._listeners: Dict[Tuple[str, str], Dict[int, Process]] = {}
        self._partition_of: Dict[str, int] = {}

    # -- topology ------------------------------------------------------------

    def add_host(self, host_id: str, position: Optional[Tuple[float, float]] = None) -> Host:
        if host_id in self._hosts:
            raise TransportError(f"duplicate host: {host_id}")
        host = Host(host_id, position)
        self._hosts[host_id] = host
        self.scheduler.register_host(host_id)
        self._host_rngs[host_id] = random.Random(
            (self.seed << 32) ^ zlib.crc32(host_id.encode("utf-8")))
        return host

    def host(self, host_id: str) -> Host:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise TransportError(f"unknown host: {host_id}") from None

    def ensure_host(self, host_id: str, position: Optional[Tuple[float, float]] = None) -> Host:
        if host_id in self._hosts:
            return self._hosts[host_id]
        return self.add_host(host_id, position)

    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    def fail_host(self, host_id: str) -> None:
        self.host(host_id).up = False

    def restore_host(self, host_id: str) -> None:
        self.host(host_id).up = True

    def set_partitions(self, groups: Iterable[Iterable[str]]) -> None:
        """Split hosts into partitions; hosts not mentioned keep partition 0."""
        self._partition_of = {}
        for index, group in enumerate(groups, start=1):
            for host_id in group:
                self.host(host_id)  # validate
                self._partition_of[host_id] = index

    def heal_partitions(self) -> None:
        self._partition_of = {}

    # -- endpoints -----------------------------------------------------------

    def attach(self, process: Process) -> None:
        """File ``process`` under its GUID's value and cache, on the
        process, its host and that host's scheduler rank: the per-message
        path reads both and looks neither up."""
        value = process.guid.value
        if value in self._processes:
            raise TransportError(f"duplicate process GUID: {process.guid}")
        process._host = self.host(process.host_id)  # must exist
        process._rank = self.scheduler.register_host(process.host_id)
        self._processes[value] = process
        self._processes_by_host.setdefault(process.host_id, {})[value] = process
        self.listen(process)

    def detach(self, guid: GUID) -> None:
        process = self._processes.pop(guid.value, None)
        if process is not None:
            on_host = self._processes_by_host.get(process.host_id)
            if on_host is not None:
                on_host.pop(guid.value, None)
            self.listen(process, False)

    def listen(self, process: Process, on: bool = True) -> None:
        """File ``process`` under each kind it ``listens_for``, or unfile it
        (``on=False``: detached, or a daemon switched off). An entry holds
        attached processes only, in attach order."""
        on_host = self._processes_by_host.get(process.host_id, {})
        for kind in process.listens_for:
            heard = self._listeners.get((process.host_id, kind), {})
            self._listeners[process.host_id, kind] = {
                value: other for value, other in on_host.items()
                if (on if other is process else value in heard)}

    def process(self, guid: GUID) -> Optional[Process]:
        return self._processes.get(guid.value)

    def processes_on(self, host_id: str) -> List[Process]:
        return list(self._processes_by_host.get(host_id, {}).values())

    # -- delivery ------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Queue a message for delivery (or loss) per the failure model.

        A unicast is counted, checked, drawn and queued here, in this one
        frame, with one scheduler call (``schedule_delivery``); a
        broadcast's copies (:meth:`_broadcast`) take the same checks in
        the same loop.
        """
        scheduler = self.scheduler
        if message.trace is None and scheduler.ambient:
            # Stamp the sender's ambient span so downstream handling joins
            # the same trace (see repro.obs.tracing; its stacks are these).
            message.trace = self.obs.tracer.current_context()
        stats = self.stats
        stats.sent_series[message.kind].value += 1
        processes = self._processes
        sender = processes.get(message.sender.value)
        if sender is None:
            # A detached (crashed/stopped) process cannot transmit.
            stats.record_drop()
            logger.debug("dropping send from detached process: %s", message)
            return
        if message.recipient.value == _BROADCAST_VALUE:
            copies = self._broadcast(message, sender)
        else:
            recipient = processes.get(message.recipient.value)
            if recipient is None:
                stats.record_undeliverable()
                logger.debug("undeliverable %s", message)
                return
            copies = ((message, recipient),)
        source = sender._host
        partition_of = self._partition_of
        rng = self._host_rngs[source.host_id]
        for copy, recipient in copies:
            target = recipient._host
            if not (source.up and target.up) or (
                    partition_of and partition_of.get(source.host_id, 0)
                    != partition_of.get(target.host_id, 0)):
                stats.record_drop()
                continue
            latency = self.latency_model.latency(source, target, rng)
            if self.drop_rate and rng.random() < self.drop_rate:
                stats.record_drop()
                continue
            scheduler.schedule_delivery(sender._rank, recipient._rank,
                                        latency, self._deliver, copy,
                                        recipient.guid)

    def _broadcast(self, message: Message,
                   sender: Process) -> List[Tuple[Message, Process]]:
        """One copy of ``message`` per process on the sender's host that
        listens for this kind, the sender excepted, each with its
        recipient.

        This models the paper's Figure-5 bootstrap: the Range Service
        "listens for CAAs or CEs starting up" on its machine — a link-local
        announcement heard by whoever declared it, not a copy per process.
        """
        heard = self._listeners.get((sender.host_id, message.kind), {})
        sender_value = message.sender.value
        copies = [(replace(message, recipient=process.guid,
                           payload=dict(message.payload)), process)
                  for value, process in heard.items() if value != sender_value]
        if not copies:
            self.stats.record_unheard(message.kind)
        return copies

    def _deliver(self, message: Message, recipient_guid: GUID) -> None:
        recipient = self._processes.get(recipient_guid.value)
        if recipient is None or not recipient._host.up:
            self.stats.record_undeliverable()
            return
        self.stats.delivered_series[recipient.host_id].value += 1
        trace = message.trace
        if trace is None:
            recipient.deliver(message)
            return
        tracer = self.obs.tracer
        frame = tracer.push_remote(trace)
        try:
            recipient.deliver(message)
        finally:
            tracer.pop_remote(frame)

    # -- convenience ---------------------------------------------------------

    def run_until_idle(self, max_time: Optional[float] = None) -> float:
        return self.scheduler.run_until_idle(max_time=max_time)

    def __repr__(self) -> str:
        return (
            f"Network(hosts={len(self._hosts)}, processes={len(self._processes)}, "
            f"t={self.scheduler.now:.3f})"
        )
