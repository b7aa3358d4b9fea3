"""Hosts, latency models and the simulated network transport.

A :class:`Network` owns a set of :class:`Host` machines and a registry of
:class:`Process` endpoints (each addressed by GUID, each living on one host).
``Network.send`` computes a delivery latency from the configured latency
model, applies loss and partition rules, and schedules
``recipient.deliver`` (duplicate suppression, then ``on_message``) on the
shared :class:`~repro.net.sim.Scheduler`.

This is the substitution for the paper's Java/LAN prototype (see DESIGN.md):
the protocol logic above it is identical to what a socket deployment would
run, but time is simulated and every run is deterministic.
"""

from __future__ import annotations

import logging
import math
import random
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.errors import TransportError
from repro.core.ids import GUID, GuidFactory
from repro.net.eventlog import EventLog
from repro.net.message import BROADCAST, Message
from repro.net.sim import Scheduler
from repro.net.stats import MessageStats
from repro.obs.hub import Observability

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


class LatencyModel:
    """Strategy interface: delivery latency for one message between hosts."""

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant latency; the ablation baseline (latency model "off")."""

    def __init__(self, value: float = 1.0):
        if value < 0:
            raise ValueError(f"negative latency: {value}")
        self.value = value

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from [low, high) — jittery LAN."""

    def __init__(self, low: float = 0.5, high: float = 2.0):
        if not 0 <= low <= high:
            raise ValueError(f"bad latency range: [{low}, {high})")
        self.low = low
        self.high = high

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


class DistanceLatency(LatencyModel):
    """Base latency plus a per-metre term from host positions."""

    def __init__(self, base: float = 0.5, per_unit: float = 0.01):
        self.base = base
        self.per_unit = per_unit

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
        self.local = local
        self.remote = remote
        self.jitter = jitter

    def latency(self, source: Host, destination: Host, rng: random.Random) -> float:
        if source.host_id == destination.host_id:
            return self.local
        return self.remote + rng.uniform(0.0, self.jitter)


# -- processes ---------------------------------------------------------------

#: sentinel distinguishing "never seen" from "seen, no reply cached"
_UNSEEN = object()


class Process:
    """Base class for every middleware component that sends/receives messages.

    Subclasses implement :meth:`on_message`. A process is attached to a
    network (which assigns nothing — the process carries its own GUID and
    host id) and unattached on failure/departure.

    Inbound delivery goes through :meth:`deliver`, which suppresses
    duplicate arrivals keyed on ``(sender.value, msg_id)``: retransmitted
    requests (see :class:`repro.net.rpc.RequestManager`) reach :meth:`on_message`
    exactly once, and if this process already replied to the original, the
    cached reply is re-sent so a lost *reply* is regenerated without
    re-executing the handler. The cache is a bounded LRU.
    """

    #: bound on remembered (sender, msg_id) arrivals per process
    DEDUP_CACHE = 1024
    #: the link-local announcement kinds (sent to ``BROADCAST``) it hears
    listens_for: Tuple[str, ...] = ()

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
        metrics = network.obs.metrics
        self._dedup_suppressed_counter = metrics.counter(
            "net.dedup.suppressed").series()
        self._dedup_replayed_counter = metrics.counter(
            "net.dedup.replayed_replies").series()
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
            reply_to=reply_to,
        )
        self.network.send(message)
        return message

    def reply(self, original: Message, kind: str, payload: Optional[Dict[str, Any]] = None) -> Message:
        """Respond to ``original``, correlating via ``reply_to``."""
        message = original.response(self.guid, kind, payload)
        key = (original.sender.value, original.msg_id)
        if key in self._seen_messages:
            # remember the reply so a retransmitted request regenerates it
            self._seen_messages[key] = message
        self.network.send(message)
        return message

    def deliver(self, message: Message) -> None:
        """Transport entry point: dedup by ``(sender.value, msg_id)``, then handle.

        A payload that is not a JSON object never reaches :meth:`on_message`:
        it is logged, counted in ``net.messages.malformed{kind}`` and dropped,
        so no handler has to guard against a string, number or list. A
        duplicate arrival never reaches :meth:`on_message` either; if the
        first arrival produced a reply, a fresh copy of that reply is re-sent
        — the requester's own dedup then collapses double acks.
        """
        if not isinstance(message.payload, dict):
            logger.info("%s: dropping %s whose payload is not an object: %r",
                        self.name, message.kind, message.payload)
            self.network.stats.record_malformed(message.kind)
            return
        key = (message.sender.value, message.msg_id)
        cached = self._seen_messages.get(key, _UNSEEN)
        if cached is not _UNSEEN:
            self._seen_messages.move_to_end(key)
            self._dedup_suppressed_counter.inc()
            if cached is not None:
                self._dedup_replayed_counter.inc()
                resend = Message(
                    sender=cached.sender,
                    recipient=cached.recipient,
                    kind=cached.kind,
                    payload=cached.payload,
                    msg_id=cached.msg_id,
                    reply_to=cached.reply_to,
                )
                resend.trace = cached.trace
                self.network.send(resend)
            return
        self._seen_messages[key] = None
        while len(self._seen_messages) > self.DEDUP_CACHE:
            self._seen_messages.popitem(last=False)
        self.on_message(message)

    def detach(self) -> None:
        """Remove this process from the network (crash or clean departure)."""
        self.network.detach(self.guid)

    # -- to override ---------------------------------------------------------

    def on_message(self, message: Message) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} on {self.host_id}>"


class FunctionProcess(Process):
    """A process whose behaviour is a plain callable — handy in tests."""

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
        event_log: Optional[EventLog] = None,
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
        #: the deployment-wide observability bundle (metrics/tracer/profiler)
        self.obs = Observability(scheduler)
        self.stats = MessageStats(self.obs.metrics)
        #: optional canonical observable log (see repro.net.eventlog)
        self.event_log = event_log
        if event_log is not None:
            scheduler.event_log = event_log
        self._hosts: Dict[str, Host] = {}
        self._processes: Dict[GUID, Process] = {}
        #: host id -> processes living there, in attach order
        self._processes_by_host: Dict[str, Dict[GUID, Process]] = {}
        #: (host id, announcement kind) -> the processes there that declared
        #: it, in attach order: the only recipients a broadcast has
        self._listeners: Dict[Tuple[str, str], Dict[GUID, Process]] = {}
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
        if process.guid in self._processes:
            raise TransportError(f"duplicate process GUID: {process.guid}")
        self.host(process.host_id)  # must exist
        self._processes[process.guid] = process
        self._processes_by_host.setdefault(process.host_id, {})[process.guid] = process
        self.listen(process)

    def detach(self, guid: GUID) -> None:
        process = self._processes.pop(guid, None)
        if process is not None:
            on_host = self._processes_by_host.get(process.host_id)
            if on_host is not None:
                on_host.pop(guid, None)
            self.listen(process, False)

    def listen(self, process: Process, on: bool = True) -> None:
        """File ``process`` under each kind it ``listens_for``, or unfile it
        (``on=False``: detached, or a daemon switched off). An entry holds
        attached processes only, in attach order."""
        on_host = self._processes_by_host.get(process.host_id, {})
        for kind in process.listens_for:
            heard = self._listeners.get((process.host_id, kind), {})
            self._listeners[process.host_id, kind] = {
                guid: other for guid, other in on_host.items()
                if (on if other is process else guid in heard)}

    def process(self, guid: GUID) -> Optional[Process]:
        return self._processes.get(guid)

    def processes_on(self, host_id: str) -> List[Process]:
        return list(self._processes_by_host.get(host_id, {}).values())

    # -- delivery ------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Queue a message for delivery (or loss) per the failure model."""
        if message.trace is None:
            # Stamp the sender's ambient span so downstream handling joins
            # the same trace (see repro.obs.tracing).
            message.trace = self.obs.tracer.current_context()
        stats = self.stats
        stats.record_send(message.kind)
        sender = self._processes.get(message.sender)
        if sender is None:
            # A detached (crashed/stopped) process cannot transmit.
            stats.record_drop()
            logger.debug("dropping send from detached process: %s", message)
            return
        source_host = self._hosts.get(sender.host_id)

        if message.recipient == BROADCAST:
            self._broadcast(message, source_host)
            return

        recipient = self._processes.get(message.recipient)
        if recipient is None:
            stats.record_undeliverable()
            logger.debug("undeliverable %s", message)
            return
        self._dispatch(message, source_host, recipient)

    def _broadcast(self, message: Message, source_host: Optional[Host]) -> None:
        """Deliver to the processes on the sender's host that listen for
        this kind, the sender excepted.

        This models the paper's Figure-5 bootstrap: the Range Service
        "listens for CAAs or CEs starting up" on its machine — a link-local
        announcement heard by whoever declared it, not a copy per process.
        """
        if source_host is None:
            self.stats.record_undeliverable()
            return
        heard = self._listeners.get((source_host.host_id, message.kind), {})
        recipients = [process for process in heard.values()
                      if process.guid != message.sender]
        if not recipients:
            self.stats.record_unheard(message.kind)
        for process in recipients:
            copy = Message(
                sender=message.sender,
                recipient=process.guid,
                kind=message.kind,
                payload=dict(message.payload),
                reply_to=message.reply_to,
            )
            copy.trace = message.trace
            self._dispatch(copy, source_host, process)

    def _dispatch(self, message: Message, source_host: Optional[Host], recipient: Process) -> None:
        destination_host = self._hosts[recipient.host_id]
        if source_host is None:
            self.stats.record_drop()
            return
        if not source_host.up or not destination_host.up:
            self.stats.record_drop()
            return
        if self._partition_of.get(source_host.host_id, 0) != self._partition_of.get(
            destination_host.host_id, 0
        ):
            self.stats.record_drop()
            return
        rng = self._host_rngs[source_host.host_id]
        latency = self.latency_model.latency(source_host, destination_host, rng)
        if self.drop_rate and rng.random() < self.drop_rate:
            self.stats.record_drop()
            return
        self.scheduler.schedule_delivery(
            source_host.host_id, recipient.host_id, latency,
            self._deliver, message, recipient.guid)

    def _deliver(self, message: Message, recipient_guid: GUID) -> None:
        recipient = self._processes.get(recipient_guid)
        if recipient is None or not self._hosts[recipient.host_id].up:
            self.stats.record_undeliverable()
            return
        self.stats.record_delivery(recipient.host_id)
        log = self.event_log
        if log is not None:
            log.record_delivery(recipient.host_id, self.scheduler.now,
                                message.kind, str(message.sender),
                                message.payload)
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
