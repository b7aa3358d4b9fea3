"""Profile handoff between ranges.

When a component moves between ranges it re-registers with its own profile
(the Figure-5 handshake repeats), but attributes the *old* range's Profile
Manager accumulated server-side — preferences learned by CAAs, usage
counters, annotations — would be lost. Section 3.1 motivates keeping them:
"a CAA can make use of a users Profile stored in their CE to determine
previous behaviour or preferences in order to provide a more useful
service."

The coordinator buffers the departing record's attributes and replays them
onto the new range's Profile Manager once the component has re-registered
there (retrying briefly, since re-registration takes a round-trip).
"""

from __future__ import annotations

import logging

from repro.server.context_server import ContextServer
from repro.server.registrar import RegistrationRecord

logger = logging.getLogger(__name__)

#: how long to keep retrying attribute replay after a transition
REPLAY_WINDOW = 30.0
REPLAY_INTERVAL = 2.0


class HandoffCoordinator:
    """Carries server-side profile attributes across range transitions."""

    def __init__(self):
        self.handoffs = 0
        self.replays = 0

    def carry(self, record: RegistrationRecord,
              source: ContextServer, target: ContextServer) -> None:
        """Schedule attribute replay for one departing component."""
        attributes = dict(record.profile.attributes)
        if not attributes:
            return
        self.handoffs += 1
        entity_hex = record.entity_hex
        deadline = target.scheduler.now + REPLAY_WINDOW

        def replay() -> None:
            profile = target.profiles.get(entity_hex)
            if profile is not None:
                # fresh values win; the rest goes through the Profile
                # Manager so the ledger and the What index see it
                carried = {key: value for key, value in attributes.items()
                           if key not in profile.attributes}
                if carried:
                    target.profiles.update_attributes(entity_hex, carried)
                self.replays += 1
                logger.debug("handoff: replayed %d attribute(s) for %s into %s",
                             len(carried), profile.name,
                             target.definition.name)
                return
            if target.scheduler.now < deadline:
                target.scheduler.schedule(REPLAY_INTERVAL, replay)

        target.scheduler.schedule(REPLAY_INTERVAL, replay)
