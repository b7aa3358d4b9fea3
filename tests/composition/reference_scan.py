"""The full-scan resolver, kept as the candidate-search equivalence reference.

Every candidate step rescans every live profile and every template. This
was ``QueryResolver(indexed=False)`` before the profile index became the
only candidate path in ``src/``; ``test_resolver.py`` and the Hypothesis
suite (``tests/properties/test_prop_resolver.py``) require the production
resolver to build the same plans. Only candidate search is swapped —
scoring, backtracking, binding and plan assembly are the production
resolver's own. An offer whose type the registry does not know is skipped,
as the index skips it.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.composition.resolver import QueryResolver, _Candidate
from repro.core.types import TypeSpec
from repro.entities.profile import Profile


class ReferenceScanResolver(QueryResolver):
    """:class:`QueryResolver` with candidates found by exhaustive scan."""

    def _candidates(
        self,
        wanted: TypeSpec,
        chain: Tuple[str, ...],
        exclude: FrozenSet[str],
        predicate: Optional[Callable[[Profile], bool]],
    ) -> List[_Candidate]:
        found: List[_Candidate] = []

        def consider(profile: Profile, origin: str,
                     entity_hex: Optional[str],
                     template_name: Optional[str]) -> None:
            if profile.name in chain:
                return  # would create a cycle through this provider kind
            if predicate is not None and not predicate(profile):
                return
            for offered in profile.outputs:
                if not self.registry.known(offered.type_name):
                    continue  # an offer of an undefined type matches nothing
                conversion = self.registry.conversion_path(offered, wanted)
                if conversion is None:
                    continue
                found.append(_Candidate(profile, offered, tuple(conversion),
                                        origin, entity_hex, template_name))
                break  # one matching output per profile suffices

        for profile in self.live_profiles():
            key = profile.entity_id.hex
            if key in exclude:
                continue
            consider(profile, "live", key, None)
        for template in self.templates.all_templates():
            if template.name in exclude:
                continue
            consider(template.prototype, "template", None, template.name)

        found.sort(key=_Candidate.score)
        return found
