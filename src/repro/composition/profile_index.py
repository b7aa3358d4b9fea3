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
residual list scanned on every query. A residual offer whose type is still
unknown is no candidate (both paths skip it), so one stray offer cannot fail
every query in its range; once its type is defined it is matched like any
other, merged into the bucket by entry id so its profile's first-match
order holds.

**Built once, then patched.** The index is built from the live profiles and
the templates when it is made, and from then on its owner patches it for
each arrival, departure or replacement (:meth:`add_profile`,
:meth:`remove_entity`), in O(outputs x ancestors). The template registry is
append-only, so a lookup files any template registered since the last one.

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
from typing import Dict, Hashable, List, Optional, Tuple

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


class ProfileIndex:
    """Type-keyed provider buckets over live profiles and templates."""

    def __init__(self, registry: TypeRegistry, live_profiles: List[Profile],
                 templates: TemplateRegistry):
        self.registry = registry
        self._templates = templates
        #: how many of ``templates`` (in registration order) are filed
        self._templates_filed = 0
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
        for profile in live_profiles:
            self.add_profile(profile)
        self._file_new_templates()

    # -- queries --------------------------------------------------------------

    def providers(self, wanted: TypeSpec) -> List[ProviderEntry]:
        """Entries whose offered output could satisfy ``wanted``, in filing
        (entry-id) order: the type's bucket, or for a subject its bound and
        unbound sub-buckets, merged with the residual entries whose type the
        registry now knows — so a profile's outputs keep their order when
        one of them was filed before its type was defined."""
        if len(self._templates) > self._templates_filed:
            self._file_new_templates()
        type_name = wanted.type_name
        if wanted.subject is None:
            filed = [self._buckets.get(type_name, {})]
        else:
            filed = [self._subject_buckets.get((type_name, wanted.subject), {}),
                     self._subject_buckets.get((type_name, None), {})]
        if self._residual:
            known = self.registry.known
            filed.append({entry_id: entry for entry_id, entry
                          in self._residual.items()
                          if known(entry.offered.type_name)})
        if len(filed) == 1:
            return list(filed[0].values())
        return [entry for _, entry in heapq.merge(
            *(bucket.items() for bucket in filed), key=itemgetter(0))]

    # -- writes ---------------------------------------------------------------

    def _file_new_templates(self) -> None:
        """File the templates registered since the last filing."""
        templates = self._templates.all_templates()
        for template in templates[self._templates_filed:]:
            self.add_profile(template.prototype, template.name)
        self._templates_filed = len(templates)

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
        """Unfile every entry of a departed entity (none if never filed)."""
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
