"""The Profile Manager Context Utility.

Section 3.1: "Profile Manager: Provides access and update abilities to
Context Entities Profiles." and "While active within a Range, the Range's
Context Server manages both the CE's Profile and Advertisements."

It is the store the Query Resolver's type matching and the Which clause's
candidate building read from. Remote Context Servers can read it with
``profile-request`` messages (used during handoff and for the PROFILE query
mode across ranges), and applications push attribute changes with
``profile-update`` messages — both are external API endpoints of this
module.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ids import GUID
from repro.entities.advertisement import Advertisement
from repro.entities.profile import Profile
from repro.net.message import Message
from repro.net.transport import Network, Process

logger = logging.getLogger(__name__)


class ProfileManager(Process):
    """Profile and Advertisement storage for one range."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str = "", ledger=None):
        super().__init__(guid, host_id, network,
                         name=f"profiles:{range_name or guid}")
        self._profiles: Dict[str, Profile] = {}
        self._advertisements: Dict[str, List[Advertisement]] = {}
        #: name -> entity hex -> profile, for ``profile-request`` by name
        self._by_name: Dict[str, Dict[str, Profile]] = {}
        #: installed by the Context Server: ``device`` is the one attribute
        #: the Registrar's What index files on, so it re-files on change
        self.on_device_change: Callable[[str], None] = lambda entity_hex: None
        #: the range's root context ledger (rank 0); None disables recording
        self._ledger = ledger
        self.updates = 0
        #: bumped on membership changes; an index-invalidation feed for
        #: consumers keying off this store (mirrors ``Registrar.version``)
        self.version = 0

    # -- direct API ------------------------------------------------------------

    def add(self, profile: Profile,
            advertisements: Optional[List[Advertisement]] = None) -> None:
        entity_hex = profile.entity_id.hex
        previous = self._profiles.get(entity_hex)
        if previous is not None and previous.name != profile.name:
            self._forget_name(previous)  # a re-registration renamed it
        self._profiles[entity_hex] = profile
        self._advertisements[entity_hex] = list(advertisements or [])
        self._by_name.setdefault(profile.name, {})[entity_hex] = profile
        self.updates += 1
        self.version += 1
        if self._ledger is not None:
            self._ledger.append(self.now, "profile-add", {
                "entity": profile.entity_id.hex,
                "profile": profile.to_wire(),
                "advertisements": [ad.to_wire()
                                   for ad in advertisements or []],
            })

    def _forget_name(self, profile: Profile) -> None:
        namesakes = self._by_name[profile.name]
        del namesakes[profile.entity_id.hex]
        if not namesakes:
            del self._by_name[profile.name]

    def remove(self, entity_hex: str) -> bool:
        self._advertisements.pop(entity_hex, None)
        profile = self._profiles.pop(entity_hex, None)
        if profile is None:
            return False
        self._forget_name(profile)
        self.version += 1
        if self._ledger is not None:
            self._ledger.append(self.now, "profile-remove",
                                {"entity": entity_hex})
        return True

    def get(self, entity_hex: str) -> Optional[Profile]:
        return self._profiles.get(entity_hex)

    def by_name(self, name: str) -> Optional[Profile]:
        """The first-stored profile of that name (a re-add keeps its place)."""
        return next(iter(self._by_name.get(name, {}).values()), None)

    def advertisements_of(self, entity_hex: str) -> List[Advertisement]:
        return list(self._advertisements.get(entity_hex, []))

    def all_profiles(self) -> List[Profile]:
        return list(self._profiles.values())

    def find(self, predicate: Callable[[Profile], bool]) -> List[Profile]:
        return [profile for profile in self._profiles.values()
                if predicate(profile)]

    def with_advertisements(self) -> List[Tuple[Profile, List[Advertisement]]]:
        return [
            (profile, self._advertisements.get(entity_hex, []))
            for entity_hex, profile in self._profiles.items()
            if self._advertisements.get(entity_hex)
        ]

    def update_attributes(self, entity_hex: str, attributes: Dict) -> bool:
        profile = self._profiles.get(entity_hex)
        if profile is None:
            return False
        profile.attributes.update(attributes)
        if "device" in attributes:
            self.on_device_change(entity_hex)
        self.updates += 1
        if self._ledger is not None:
            self._ledger.append(self.now, "profile-update", {
                "entity": entity_hex,
                "attributes": dict(attributes),
            })
        return True

    def population(self) -> int:
        return len(self._profiles)

    # -- message protocol ----------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.kind == "profile-request":
            self._handle_profile_request(message)
        elif message.kind == "profile-update":
            entity_hex = message.payload.get("entity", "")
            ok = self.update_attributes(entity_hex,
                                        message.payload.get("attributes", {}))
            self.reply(message, "profile-update-ack", {"ok": ok})
        else:
            logger.debug("%s ignoring %s", self.name, message)

    def _handle_profile_request(self, message: Message) -> None:
        entity_hex = message.payload.get("entity")
        name = message.payload.get("name")
        profile = None
        if entity_hex:
            profile = self.get(entity_hex)
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
