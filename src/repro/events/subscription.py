"""Subscription records held by an Event Mediator, which numbers them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.ids import GUID
from repro.events.filters import EventFilter, MatchAll


@dataclass
class Subscription:
    """One subscriber's interest in a stream of events.

    ``one_time`` implements the paper's "One-time subscription" query mode:
    "As above, but the subscription is cancelled after the CAA receives an
    event."

    ``owner`` identifies who established the subscription (usually the
    Context Server on behalf of a configuration) so all subscriptions
    belonging to a torn-down configuration can be removed together.

    ``sub_id`` is the mediator's number for it, unique within that mediator
    only: a subscriber names a stream by ``(mediator, sub_id)``.
    """

    sub_id: int
    subscriber: GUID
    filter: EventFilter = field(default_factory=MatchAll)
    one_time: bool = False
    owner: Optional[object] = None
    created_at: float = 0.0
    active: bool = True
    #: last sequence number stamped on a delivery for this subscription,
    #: so also its delivery count; subscribers detect silent loss as holes
    #: in the sequence
    seq: int = 0

    def record_delivery(self) -> int:
        """Stamp one delivery: its sequence number. It spends a one-time
        subscription."""
        if self.one_time:
            self.active = False
        self.seq += 1
        return self.seq

    def __str__(self) -> str:
        mode = "one-time" if self.one_time else "durable"
        return f"Sub#{self.sub_id}({mode} -> {self.subscriber})"
