"""Messages exchanged between middleware processes.

Every interaction in the reproduction — registration, discovery, event
publication, query submission, overlay routing — is a :class:`Message`. The
``kind`` string is the protocol verb ("register", "publish", "query", ...),
``payload`` the verb-specific body. ``reply_to`` correlates responses with
requests (see :mod:`repro.net.rpc`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.ids import GUID

#: Sentinel recipient: the processes on the sender's host that listen for the kind.
BROADCAST = GUID((1 << 128) - 1)

_message_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """One unit of communication between two :class:`~repro.net.transport.Process` objects."""

    sender: GUID
    recipient: GUID
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    reply_to: Optional[int] = None
    #: Number of overlay hops taken so far (incremented by overlay nodes).
    hops: int = 0
    #: Trace-context metadata ({"trace": ..., "span": ...}): the transport
    #: stamps the sender's ambient span here and re-activates it at delivery,
    #: so spans opened while handling this message become its children.
    trace: Optional[Dict[str, str]] = None

    def response(self, sender: GUID, kind: str, payload: Optional[Dict[str, Any]] = None) -> "Message":
        """Build a reply to this message, correlated via ``reply_to``."""
        return Message(
            sender=sender,
            recipient=self.sender,
            kind=kind,
            payload=payload or {},
            reply_to=self.msg_id,
        )

    def __str__(self) -> str:
        arrow = f"{self.sender} -> {self.recipient}"
        suffix = f" (re:{self.reply_to})" if self.reply_to is not None else ""
        return f"[{self.kind}] {arrow}{suffix}"
