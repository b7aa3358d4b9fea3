"""SCI's composition model over the baseline environment.

The fourth column of the C3 comparison: semantic type matching with
converter insertion, re-composed automatically on environmental change. The
adapter runs the real :class:`~repro.composition.resolver.QueryResolver`
against profiles synthesised from the environment's live sources, so the
comparison exercises exactly the matching logic the full middleware uses —
without dragging the network substrate into what is a composition-model
benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import NoProviderError
from repro.core.ids import GuidFactory
from repro.core.types import TypeRegistry, TypeSpec
from repro.composition.resolver import QueryResolver
from repro.baselines.common import DataSource, Environment
from repro.entities.profile import EntityClass, Profile


class SCIComposition:
    """Resolver-backed bindings over a baseline environment."""

    def __init__(self, environment: Environment, registry: TypeRegistry,
                 seed: int = 0):
        self.environment = environment
        self.registry = registry
        self._guids = GuidFactory(seed=seed)
        self._profile_of: Dict[str, Profile] = {}
        self._source_of_hex: Dict[str, DataSource] = {}
        #: wanted spec -> currently bound source (after converters)
        self.bindings: Dict[TypeSpec, Optional[DataSource]] = {}
        self.recompositions = 0

    def _profile_for(self, source: DataSource) -> Profile:
        profile = self._profile_of.get(source.name)
        if profile is None:
            profile = Profile(
                entity_id=self._guids.mint(),
                name=source.name,
                entity_class=EntityClass.DEVICE,
                outputs=[TypeSpec(source.type_name, source.representation,
                                  source.subject)],
            )
            self._profile_of[source.name] = profile
            self._source_of_hex[profile.entity_id.hex] = source
        return profile

    def _live_profiles(self) -> List[Profile]:
        return [self._profile_for(source)
                for source in self.environment.live_sources()]

    # -- the composition operations the C3 workload drives ------------------------

    def demand(self, wanted: TypeSpec) -> Optional[DataSource]:
        """Bind a demand; returns the chosen root source (None on failure).

        The environment reports no arrivals or departures, so each demand
        resolves over a resolver built on the sources live now.
        """
        resolver = QueryResolver(self.registry,
                                 live_profiles=self._live_profiles)
        try:
            plan = resolver.resolve(wanted)
        except NoProviderError:
            self.bindings[wanted] = None
            return None
        root_source = self._root_source(plan)
        self.bindings[wanted] = root_source
        return root_source

    def _root_source(self, plan) -> Optional[DataSource]:
        for key in plan.source_keys():
            node = plan.nodes[key]
            if node.kind == "live" and node.entity_hex in self._source_of_hex:
                return self._source_of_hex[node.entity_hex]
        return None

    def environment_changed(self) -> int:
        """Re-compose every demand whose bound source died.

        Returns how many demands were re-resolved (successfully or not) —
        SCI's analogue of iQueue's rebinding pass, but semantic.
        """
        repaired = 0
        for wanted, source in list(self.bindings.items()):
            if source is not None and source.alive:
                continue
            repaired += 1
            self.recompositions += 1
            self.demand(wanted)
        return repaired

    def satisfied(self) -> bool:
        return bool(self.bindings) and all(
            source is not None and source.alive
            for source in self.bindings.values())

    def satisfied_count(self) -> int:
        return sum(1 for source in self.bindings.values()
                   if source is not None and source.alive)
