"""The Profile Manager Context Utility.

Section 3.1: "Profile Manager: Provides access and update abilities to
Context Entities Profiles." and "While active within a Range, the Range's
Context Server manages both the CE's Profile and Advertisements."

One manager, one store: a range keeps its membership in the Registrar's
records, and the Profile Manager is a view over them with two verbs of its
own. It hands out the very ``Profile`` objects the records hold, so an
arrival, a re-registration or a departure needs no call here and there is
no second book to fall out of step. Remote Context Servers read it with
``profile-request`` messages (used during handoff and for the PROFILE query
mode across ranges), and applications push attribute changes with
``profile-update`` messages — both are external API endpoints of this
module, and the attribute patch is the one fact it writes to the ledger.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.ids import GUID
from repro.entities.advertisement import Advertisement
from repro.entities.profile import Profile
from repro.ledger.ledger import ContextLedger
from repro.net.message import Message
from repro.net.transport import Network, Process
from repro.server.registrar import Registrar


class ProfileManager(Process):
    """Profile and Advertisement access for one range's registrations."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 registrar: Registrar, range_name: str = "",
                 ledger: Optional[ContextLedger] = None):
        super().__init__(guid, host_id, network,
                         name=f"profiles:{range_name or guid}")
        self._registrar = registrar
        #: the range's context-ledger chain, or a private one
        self.ledger = (ledger if ledger is not None else ContextLedger(
            self.name, metrics=network.obs.metrics, range_name=range_name))
        self.updates = 0

    # -- direct API ------------------------------------------------------------

    def get(self, entity_hex: str) -> Optional[Profile]:
        record = self._registrar.record(entity_hex)
        return record.profile if record is not None else None

    def by_name(self, name: str) -> Optional[Profile]:
        """The earliest-registered profile of that name."""
        record = self._registrar.named(name)
        return record.profile if record is not None else None

    def advertisements_of(self, entity_hex: str) -> List[Advertisement]:
        record = self._registrar.record(entity_hex)
        return list(record.advertisements) if record is not None else []

    def all_profiles(self) -> List[Profile]:
        return [record.profile for record in self._registrar.records()]

    def update_attributes(self, entity_hex: str, attributes: Dict) -> bool:
        profile = self.get(entity_hex)
        if profile is None:
            return False
        profile.attributes.update(attributes)
        if "device" in attributes:
            # the one attribute the Registrar's What index files on
            self._registrar.retag(entity_hex)
        self.updates += 1
        self.ledger.append(self.now, "profile-update", {
            "entity": entity_hex,
            "attributes": dict(attributes),
        })
        return True

    def population(self) -> int:
        return self._registrar.population()

    # -- message protocol ----------------------------------------------------------

    def _handle_profile_update(self, message: Message) -> None:
        fields = message.fields
        ok = self.update_attributes(fields["entity"].hex,
                                    fields.get("attributes", {}))
        self.reply(message, "profile-update-ack", {"ok": ok})

    def _handle_profile_request(self, message: Message) -> None:
        entity = message.fields.get("entity")
        name = message.fields.get("name")
        profile = None
        if entity is not None:
            profile = self.get(entity.hex)
        elif name:
            profile = self.by_name(name)
        if profile is None:
            self.reply(message, "profile-response", {"found": False})
            return
        self.reply(message, "profile-response", {
            "found": True,
            "profile": profile.to_wire(),
            "advertisements": [ad.to_wire() for ad in
                               self.advertisements_of(profile.entity_id.hex)],
        })
