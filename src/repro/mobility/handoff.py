"""Profile handoff between ranges.

When a component moves between ranges it re-registers with its own profile
(the Figure-5 handshake repeats), but attributes the *old* range's Profile
Manager accumulated server-side — preferences learned by CAAs, usage
counters, annotations — would be lost. Section 3.1 motivates keeping them:
"a CAA can make use of a users Profile stored in their CE to determine
previous behaviour or preferences in order to provide a more useful
service."

The coordinator hands the departing record's attributes to the new range's
Context Server, which applies them when the component registers there
(:meth:`~repro.server.context_server.ContextServer.carry_attributes`):
nothing polls for the re-registration.
"""

from __future__ import annotations

from repro.server.context_server import ContextServer
from repro.server.registrar import RegistrationRecord


class HandoffCoordinator:
    """Carries server-side profile attributes across range transitions."""

    def __init__(self):
        self.handoffs = 0

    def carry(self, record: RegistrationRecord,
              target: ContextServer) -> None:
        """Hand one departing component's attributes to ``target``."""
        attributes = dict(record.profile.attributes)
        if not attributes:
            return
        self.handoffs += 1
        target.carry_attributes(record.entity_hex, attributes)
