"""Offered-output-type index over CE profiles for the Query Resolver.

Backward chaining calls the candidate step once per input edge, so one
resolve is O(plan_edges x candidates). This index buckets each (profile,
offered output) pair under the offered type name *and all of its is_a
ancestors*, because :meth:`TypeRegistry.conversion_path` lets a subtype
stand in for its parent (``gps-position`` satisfies a wanted ``location``).
A candidate query for ``wanted`` then reads exactly the ``wanted.type_name``
bucket.

**Subject sub-buckets.** Every filed entry also goes under ``(type,
subject)``, unbound offers under ``(type, None)``. A wanted spec with a
subject reads only its own and the unbound sub-bucket, merged back into
filing (entry-id) order: exactly the entries ``conversion_path``'s subject
rule would keep (equal or unbound offered subject), in the order the full
bucket holds them, so the first-match rule picks the same output. A
subject-less want reads the whole type bucket. Subjects are hashable
scalars (``Profile.from_wire`` refuses anything else).

Soundness: the buckets are a pre-filter only. Representation bridging,
subject compatibility and converter search still run per entry via
``conversion_path``, so results are identical to the full scan (the
reference in ``tests/composition/reference_scan.py``). Outputs whose type
the registry does not know cannot be filed under ancestors; they go to a
residual list scanned on every query, which reproduces the scan's behaviour
(``conversion_path`` raising for unknown types at query time) exactly.

**Kept by delta.** The index carries the feed token it was last made
current for. A lookup under a different token rebuilds it from the feed; a
single arrival or departure that the owner *reports* (:meth:`apply`)
patches it in place instead, in O(outputs x ancestors). Delta soundness is
the version-chain rule: the feed token is the pair ``(registrations_version,
templates_version)`` and the registrar bumps the registrations component by
exactly one per membership change, so a delta carrying token T applies only
if the index stands at T's immediate predecessor. Any gap — a bump nobody
reported, a template registration, never built — leaves the token stale and
the next lookup rebuilds. Nothing can be silently stale.

Buckets are insertion-ordered dicts keyed by a monotone entry id, with a
reverse map from entity hex to its entry ids. Delta adds append after whatever
is already filed; candidate correctness is order-insensitive because
per-profile outputs stay adjacent (first-match rule) and the resolver sorts
candidates by a total-order score.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.errors import SCIError
from repro.core.types import TypeRegistry, TypeSpec
from repro.composition.templates import TemplateRegistry
from repro.entities.profile import Profile


@dataclass(frozen=True)
class ProviderEntry:
    """One (profile, offered output) pair the resolver may draw on."""

    profile: Profile
    offered: TypeSpec
    offered_position: int       # index into profile.outputs, for first-match rule
    origin: str                 # "live" | "template"
    entity_hex: Optional[str]   # for live
    template_name: Optional[str]  # for template


#: reverse-map marker: the entry is filed on the residual list
_RESIDUAL = None

#: sentinel token: the index has never been built
NEVER_BUILT = object()


def _predecessor(token: object) -> object:
    """The feed token immediately before ``token``.

    Deltas need the ``(registrations_version, templates_version)`` token
    shape; anything else cannot chain.
    """
    try:
        registrations, templates_version = token
        return (registrations - 1, templates_version)
    except (TypeError, ValueError):
        raise TypeError(
            "provider-index deltas need a (registrations_version, "
            f"templates_version) feed token, got {token!r}") from None


class ProfileIndex:
    """Type-keyed provider buckets, current for one feed token."""

    def __init__(self, registry: TypeRegistry):
        self.registry = registry
        self.token: object = NEVER_BUILT
        self._entry_ids = itertools.count(1)
        self._buckets: Dict[str, Dict[int, ProviderEntry]] = {}
        #: (type name, offered subject) -> the type bucket's entries with
        #: that subject; unbound offers under (type name, None)
        self._subject_buckets: Dict[Tuple[str, Hashable],
                                    Dict[int, ProviderEntry]] = {}
        self._residual: Dict[int, ProviderEntry] = {}
        #: entity hex -> entry id -> (offered subject, bucket names filed
        #: under; the _RESIDUAL marker stands for the residual list)
        self._by_entity: Dict[str, Dict[int, Tuple[Hashable,
                                                   List[Optional[str]]]]] = {}

    # -- queries --------------------------------------------------------------

    def providers(self, wanted: TypeSpec,
                  live_profiles: Callable[[], List[Profile]],
                  templates: TemplateRegistry,
                  token: object) -> Tuple[List[ProviderEntry], bool]:
        """Entries whose offered output could satisfy ``wanted``.

        Rebuilds from the feed first when ``token`` is not the one the index
        stands at; returns ``(entries, rebuilt)`` so the resolver can count
        builds. Bucketed entries first, in filing order, then the residual
        list.
        """
        rebuilt = self.token != token
        if rebuilt:
            self.rebuild(live_profiles(), templates)
            self.token = token
        if wanted.subject is None:
            bucket = self._buckets.get(wanted.type_name)
            found = list(bucket.values()) if bucket else []
        else:
            found = self._subject_providers(wanted.type_name, wanted.subject)
        if self._residual:
            found.extend(self._residual.values())
        return found, rebuilt

    def _subject_providers(self, type_name: str,
                           subject: Hashable) -> List[ProviderEntry]:
        """The bound and the unbound sub-bucket, merged by entry id."""
        bound = self._subject_buckets.get((type_name, subject), {})
        unbound = self._subject_buckets.get((type_name, None), {})
        return [entry for _, entry in heapq.merge(
            bound.items(), unbound.items(), key=itemgetter(0))]

    # -- deltas ---------------------------------------------------------------

    def apply(self, token: object, added: Optional[Profile] = None,
              removed: Optional[str] = None) -> bool:
        """One reported membership change: unfile ``removed``, file ``added``.

        Both may be None for changes that bump the feed version but leave
        the provider table alone (context-aware applications) — the token
        still advances so later deltas keep chaining. Returns False when the
        index is not at ``token``'s predecessor; it then catches up by
        rebuilding on the next lookup.
        """
        if self.token != _predecessor(token):
            return False
        if removed is not None:
            self.remove_entity(removed)
        if added is not None:
            self.add_profile(added)
        self.token = token
        return True

    def rebuild(self, live_profiles: List[Profile],
                templates: TemplateRegistry) -> None:
        self._buckets = {}
        self._subject_buckets = {}
        self._residual = {}
        self._by_entity = {}
        for profile in live_profiles:
            self.add_profile(profile)
        for template in templates.all_templates():
            self.add_profile(template.prototype, template.name)

    def add_profile(self, profile: Profile,
                    template_name: Optional[str] = None) -> None:
        """File one profile's outputs: a live entity's, or a template's."""
        if template_name is None:
            origin, entity_hex = "live", profile.entity_id.hex
        else:
            origin, entity_hex = "template", None
        for position, offered in enumerate(profile.outputs):
            entry = ProviderEntry(profile, offered, position, origin,
                                  entity_hex, template_name)
            entry_id = next(self._entry_ids)
            subject = offered.subject
            try:
                filed: List[Optional[str]] = self.registry.ancestors(
                    offered.type_name)
            except SCIError:
                self._residual[entry_id] = entry
                filed = [_RESIDUAL]
            else:
                for type_name in filed:
                    self._buckets.setdefault(type_name, {})[entry_id] = entry
                    self._subject_buckets.setdefault(
                        (type_name, subject), {})[entry_id] = entry
            if entity_hex is not None:
                self._by_entity.setdefault(entity_hex, {})[entry_id] = (
                    subject, filed)

    def remove_entity(self, entity_hex: str) -> None:
        """Unfile every entry of a departed entity."""
        entries = self._by_entity.pop(entity_hex, None)
        if not entries:
            return
        for entry_id, (subject, filed) in entries.items():
            for type_name in filed:
                if type_name is _RESIDUAL:
                    self._residual.pop(entry_id, None)
                    continue
                _unfile(self._buckets, type_name, entry_id)
                _unfile(self._subject_buckets, (type_name, subject), entry_id)


def _unfile(buckets: Dict, key: Hashable, entry_id: int) -> None:
    bucket = buckets.get(key)
    if bucket is not None:
        bucket.pop(entry_id, None)
        if not bucket:
            del buckets[key]
