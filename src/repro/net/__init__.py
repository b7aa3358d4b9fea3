"""Deterministic discrete-event network substrate.

The authors prototyped SCI in Java over a "hybrid communication model (a
combination of distributed events and point to point communication)". We
reproduce that over a simulated network so every experiment is deterministic:
components are :class:`Process` objects attached to :class:`Host` machines,
all interaction is message passing through a :class:`Network`, and time is
driven by a :class:`Scheduler` — one heap popped in a canonical key order,
so the observable event log (:class:`EventLog`) is bit-identical from run
to run.
"""

from repro.net.sim import Scheduler, Timer
from repro.net.eventlog import EventLog
from repro.net.message import Message, BROADCAST
from repro.net.transport import (
    Host,
    Network,
    Process,
    FixedLatency,
    UniformLatency,
    DistanceLatency,
    CampusLatency,
)
from repro.net.rpc import RequestManager, PendingRequest
from repro.net.stats import MessageStats

__all__ = [
    "Scheduler",
    "Timer",
    "EventLog",
    "Message",
    "BROADCAST",
    "Host",
    "Network",
    "Process",
    "FixedLatency",
    "UniformLatency",
    "DistanceLatency",
    "CampusLatency",
    "RequestManager",
    "PendingRequest",
    "MessageStats",
]
