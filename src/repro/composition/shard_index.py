"""Sharded provider index: K ProfileIndex slices over a consistent ring.

``resolver_shards > 1`` splits the provider table by **offered type name**
— ring key ``(type_name, None)`` — so a candidate query for ``wanted``
touches exactly one slice, and a stale slice rebuilds only its ~1/K of the
buckets. Each slice is a :class:`~repro.composition.profile_index.
ProfileIndex` restricted to the type names it owns, with its own feed token:
the version-chain rule, lazy rebuild and in-place deltas are that class's,
applied per slice. A reported delta goes to every slice (a profile's outputs
and their ancestors may land anywhere on the ring); slices that are not at
the predecessor token skip it and catch up by rebuilding when next queried.

Residual entries (offered types the registry does not know) are filed on
*every* slice, because every query must scan them; they are few by
construction.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.composition.profile_index import (NEVER_BUILT, ProfileIndex,
                                             ProviderEntry)
from repro.composition.templates import TemplateRegistry
from repro.core.types import TypeRegistry
from repro.entities.profile import Profile
from repro.server.shard import ShardRing


class ShardedProfileIndex:
    """Ring-partitioned provider buckets with per-slice version tokens."""

    def __init__(self, registry: TypeRegistry, shards: int):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.ring = ShardRing(tuple(range(shards)))
        self._slices = [ProfileIndex(registry, owns=self._ownership(shard_id))
                        for shard_id in range(shards)]

    def _ownership(self, shard_id: int) -> Callable[[str], bool]:
        def owns(type_name: str) -> bool:
            return self.ring.owner((type_name, None)) == shard_id
        return owns

    def providers(self, type_name: str,
                  live_profiles: Callable[[], List[Profile]],
                  templates: TemplateRegistry,
                  token: object) -> Tuple[List[ProviderEntry], bool]:
        """Provider entries for ``type_name`` from the owning slice."""
        owner = self._slices[self.ring.owner((type_name, None))]
        return owner.providers(type_name, live_profiles, templates, token)

    def apply(self, token: object, added: Optional[Profile] = None,
              removed: Optional[str] = None) -> int:
        """Offer one delta to every slice; returns how many took it."""
        return sum(index.apply(token, added, removed)
                   for index in self._slices)

    def built_shards(self) -> List[int]:
        return [shard_id for shard_id, index in enumerate(self._slices)
                if index.token is not NEVER_BUILT]
