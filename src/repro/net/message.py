"""Messages exchanged between middleware processes.

Every interaction in the reproduction — registration, discovery, event
publication, query submission, overlay routing — is a :class:`Message`. The
``kind`` string is the protocol verb ("register", "publish", "query", ...),
``payload`` the verb-specific body. ``msg_id`` is the sending process's
number for it (a copy keeps its original's id: a retransmitted request and
a re-sent cached reply, which receivers dedup on ``(sender, msg_id)``; no
one-way verb is sent twice under one id), and ``reply_to`` correlates
responses with requests (see :mod:`repro.net.rpc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.ids import GUID

#: Sentinel recipient: the processes on the sender's host that listen for the kind.
BROADCAST = GUID((1 << 128) - 1)


@dataclass(slots=True)
class Message:
    """One unit of communication between two :class:`~repro.net.transport.Process` objects."""

    sender: GUID
    recipient: GUID
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(kw_only=True)
    reply_to: Optional[int] = None
    #: Trace-context metadata ({"trace": ..., "span": ...}): the transport
    #: stamps the sender's ambient span here and re-activates it at delivery,
    #: so spans opened while handling this message become its children.
    trace: Optional[Dict[str, str]] = None
    #: the declared fields, parsed on arrival by the receiver's
    #: :meth:`~repro.net.transport.Process.deliver` (see repro.net.wire)
    fields: Optional[Dict[str, Any]] = None

    def __str__(self) -> str:
        arrow = f"{self.sender} -> {self.recipient}"
        suffix = f" (re:{self.reply_to})" if self.reply_to is not None else ""
        return f"[{self.kind}] {arrow}{suffix}"
