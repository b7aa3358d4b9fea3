"""The Query Resolver — backward-chaining type matching over CE profiles.

Section 3.1: "Query Resolver: Provides the means to take a high level query
and decompose it into a useful configuration of Context Entities." Section
3.2 describes the algorithm on the path example: search profiles for an
entity producing the wanted output, recursively satisfy that entity's
inputs, "down to the sensor/data level".

This resolver adds two things the paper motivates but leaves implicit:

* **representation bridging** — when a provider is semantically right but
  syntactically wrong (W-LAN geometric location vs wanted symbolic), a
  converter node is spliced in via the type registry's converter edges.
  This is exactly the capability the paper says iQueue lacks;
* **template instantiation** — processing CEs can be spawned on demand from
  registered templates, so composition is not limited to components wired
  at design time (the Context Toolkit critique).

Determinism: candidates are scored and tie-broken by name, so the same
environment always yields the same configuration.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.errors import CompositionError, NoProviderError
from repro.core.types import Converter, TypeRegistry, TypeSpec
from repro.composition.binding import BindingRule, binding_rule_of
from repro.composition.graph import ConfigurationPlan, PlanNode
from repro.composition.profile_index import ProfileIndex
from repro.composition.templates import TemplateRegistry
from repro.entities.profile import Profile
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

#: hard bound on provider chain depth — a cycle guard of last resort
MAX_DEPTH = 12


@dataclass
class _Candidate:
    """One provider option for a wanted spec."""

    profile: Profile
    offered: TypeSpec
    conversion: Tuple[Converter, ...]
    origin: str                 # "live" | "template"
    entity_hex: Optional[str]   # for live
    template_name: Optional[str]  # for template

    def score(self) -> Tuple:
        return (
            len(self.conversion),                 # native representation first
            0 if self.origin == "live" else 1,    # reuse before spawning
            len(self.profile.inputs),             # shallower graphs first
            self.profile.quality.get("accuracy", float("inf")),
            self.profile.name,                    # determinism...
            self.entity_hex or self.template_name,  # ...among namesakes too
        )


class QueryResolver:
    """Builds configuration plans from profiles, templates and converters.

    ``live_profiles`` is a callable returning the current registrations (the
    Profile Manager's view); ``bindings_of`` reports the parameter bindings
    a live CE is already claimed with (the Configuration Manager's ledger),
    so two queries cannot bind one CE to different subjects.

    Candidate search runs over a :class:`ProfileIndex` keyed by offered
    output type and, for a subject-bound want, offered subject. The first
    lookup builds it from ``live_profiles()`` and the templates; from then
    on the owner reports every membership change through ``note_profile_*``
    and each report patches it in place. A change nobody reports is never
    seen, so a caller whose profile list changes behind the resolver's back
    builds a fresh resolver (the full scan it must agree with is the
    equivalence reference in ``tests/composition/reference_scan.py``).
    """

    def __init__(
        self,
        registry: TypeRegistry,
        live_profiles: Callable[[], List[Profile]],
        templates: Optional[TemplateRegistry] = None,
        bindings_of: Optional[Callable[[str], Optional[Dict[str, object]]]] = None,
        metrics=None,
        range_name: str = "",
    ):
        self.registry = registry
        self.live_profiles = live_profiles
        self.templates = templates or TemplateRegistry()
        self.bindings_of = bindings_of or (lambda _hex: None)
        self._converter_counter = itertools.count(1)
        self.resolutions = 0
        self.backtracks = 0
        #: builds of the provider index: at most one per resolver
        self.index_rebuilds = 0
        self.index_hits = 0
        #: membership changes reported through ``note_profile_*``
        self.index_deltas = 0
        #: built at the first lookup
        self._provider_index: Optional[ProfileIndex] = None
        metrics = MetricsRegistry() if metrics is None else metrics
        label = range_name or "-"
        self._hits_counter = metrics.counter(
            "resolver.index.hits").series(range=label)
        self._rebuilds_counter = metrics.counter(
            "resolver.index.rebuilds").series(range=label)
        self._deltas_counter = metrics.counter(
            "resolver.index.deltas").series(range=label)

    # -- public API ---------------------------------------------------------------

    def resolve(
        self,
        wanted: TypeSpec,
        exclude: FrozenSet[str] = frozenset(),
        provider_predicate: Optional[Callable[[Profile], bool]] = None,
    ) -> ConfigurationPlan:
        """Build a plan delivering ``wanted``.

        ``exclude`` holds entity hexes and template names to avoid (used for
        re-composition after failure). ``provider_predicate`` applies Where
        constraints to candidate providers. Raises :class:`NoProviderError`
        when no complete chain down to data sources exists.
        """
        self.resolutions += 1
        plan = ConfigurationPlan(wanted)
        key, actual = self._satisfy(plan, wanted, chain=(), depth=0,
                                    exclude=exclude,
                                    predicate=provider_predicate)
        plan.set_output(key, actual)
        plan.validate()
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("resolved %s ->\n%s", wanted, plan.describe())
        return plan

    def note_profile_added(self, profile: Profile) -> None:
        """Arrival delta: file ``profile``'s outputs."""
        self._note_delta(added=profile)

    def note_profile_removed(self, entity_hex: str) -> None:
        """Departure delta: unfile an entity's entries (none for an entity
        that provides nothing)."""
        self._note_delta(removed=entity_hex)

    def note_profile_replaced(self, entity_hex: str,
                              profile: Optional[Profile]) -> None:
        """Re-registration delta: old entries out, ``profile``'s in (None
        when the new registration provides nothing)."""
        self._note_delta(added=profile, removed=entity_hex)

    def _note_delta(self, added: Optional[Profile] = None,
                    removed: Optional[str] = None) -> None:
        self.index_deltas += 1
        self._deltas_counter.inc()
        index = self._provider_index
        if index is None:
            return  # the first lookup builds from the feed, change included
        if removed is not None:
            index.remove_entity(removed)
        if added is not None:
            index.add_profile(added)

    # -- search --------------------------------------------------------------------

    def _satisfy(
        self,
        plan: ConfigurationPlan,
        wanted: TypeSpec,
        chain: Tuple[str, ...],
        depth: int,
        exclude: FrozenSet[str],
        predicate: Optional[Callable[[Profile], bool]],
    ) -> Tuple[str, TypeSpec]:
        if depth > MAX_DEPTH:
            raise NoProviderError(wanted, chain)
        for candidate in self._candidates(wanted, chain, exclude, predicate):
            checkpoint = _PlanCheckpoint(plan)
            try:
                return self._expand(plan, candidate, wanted, chain, depth,
                                    exclude, predicate)
            except CompositionError:
                self.backtracks += 1
                checkpoint.rollback()
        raise NoProviderError(wanted, chain)

    def _satisfy_all(
        self,
        plan: ConfigurationPlan,
        wanted: TypeSpec,
        chain: Tuple[str, ...],
        depth: int,
        exclude: FrozenSet[str],
        predicate: Optional[Callable[[Profile], bool]],
    ) -> List[Tuple[str, TypeSpec]]:
        """Wire EVERY viable provider of an unbound-subject input.

        Figure 3: the objLocationCE "was set up to subscribe to all events
        emanating from door sensors" — a subject-less input is a broadcast
        input, so one edge per provider, not a single best chain.
        """
        if depth > MAX_DEPTH:
            raise NoProviderError(wanted, chain)
        wired: List[Tuple[str, TypeSpec]] = []
        seen_keys: set = set()
        for candidate in self._candidates(wanted, chain, exclude, predicate):
            if candidate.origin == "template" and wired:
                # Spawning extra template instances adds no new data once at
                # least one provider is wired.
                continue
            checkpoint = _PlanCheckpoint(plan)
            try:
                key, actual = self._expand(plan, candidate, wanted, chain,
                                           depth, exclude, predicate)
            except CompositionError:
                self.backtracks += 1
                checkpoint.rollback()
                continue
            if key in seen_keys:
                continue
            seen_keys.add(key)
            wired.append((key, actual))
        if not wired:
            raise NoProviderError(wanted, chain)
        return wired

    def _candidates(
        self,
        wanted: TypeSpec,
        chain: Tuple[str, ...],
        exclude: FrozenSet[str],
        predicate: Optional[Callable[[Profile], bool]],
    ) -> List[_Candidate]:
        index = self._provider_index
        if index is None:
            index = self._provider_index = ProfileIndex(
                self.registry, self.live_profiles(), self.templates)
            self.index_rebuilds += 1
            self._rebuilds_counter.inc()
        entries = index.providers(wanted)
        self.index_hits += 1
        self._hits_counter.inc()
        found: List[_Candidate] = []
        taken: Set[Tuple[str, Optional[str]]] = set()
        for entry in entries:
            if entry.origin == "live":
                if entry.entity_hex in exclude:
                    continue
            elif entry.template_name in exclude:
                continue
            provider_key = (entry.origin, entry.entity_hex or entry.template_name)
            if provider_key in taken:
                continue  # an earlier output of this provider already matched
            profile = entry.profile
            if profile.name in chain:
                continue  # would create a cycle through this provider kind
            if predicate is not None and not predicate(profile):
                continue
            conversion = self.registry.conversion_path(entry.offered, wanted)
            if conversion is None:
                continue
            taken.add(provider_key)
            found.append(_Candidate(profile, entry.offered, tuple(conversion),
                                    entry.origin, entry.entity_hex,
                                    entry.template_name))
        found.sort(key=_Candidate.score)
        return found

    def _expand(
        self,
        plan: ConfigurationPlan,
        candidate: _Candidate,
        wanted: TypeSpec,
        chain: Tuple[str, ...],
        depth: int,
        exclude: FrozenSet[str],
        predicate: Optional[Callable[[Profile], bool]],
    ) -> Tuple[str, TypeSpec]:
        profile = candidate.profile
        rule = binding_rule_of(profile)
        bindings = self._bindings_for(candidate, rule, wanted)

        node = self._node_for(plan, candidate, bindings)
        # Recursively satisfy the provider's event inputs (unless the node
        # was already in the plan, in which case its inputs are wired).
        if not plan.inputs_of(node.key) and profile.inputs:
            input_specs = (rule.input_subjects(wanted.subject, profile.inputs)
                           if rule and wanted.subject is not None
                           else list(profile.inputs))
            for input_spec in input_specs:
                if input_spec.subject is None:
                    sources = self._satisfy_all(
                        plan, input_spec, chain + (profile.name,),
                        depth + 1, exclude, predicate)
                    for sub_key, sub_actual in sources:
                        plan.add_edge(sub_key, node.key, sub_actual)
                else:
                    sub_key, sub_actual = self._satisfy(
                        plan, input_spec, chain + (profile.name,),
                        depth + 1, exclude, predicate)
                    plan.add_edge(sub_key, node.key, sub_actual)

        produced = TypeSpec(
            candidate.offered.type_name,
            candidate.offered.representation,
            wanted.subject if wanted.subject is not None else candidate.offered.subject,
            candidate.offered.quality,
        )
        if not candidate.conversion:
            return node.key, produced

        # Splice a converter bridging the representation gap.
        target = produced.with_representation(wanted.representation)
        conv_key = f"conv:{next(self._converter_counter)}"
        conv_profile = Profile(
            entity_id=profile.entity_id,  # placeholder; manager mints real GUIDs
            name=f"convert:{produced.representation}->{target.representation}",
            outputs=[target],
            inputs=[produced],
        )
        conv_node = PlanNode(
            key=conv_key,
            kind="converter",
            profile=conv_profile,
            converter_chain=candidate.conversion,
            input_spec=produced,
            output_spec=target,
        )
        plan.add_node(conv_node)
        plan.add_edge(node.key, conv_key, produced)
        return conv_key, target

    def _bindings_for(self, candidate: _Candidate, rule: Optional[BindingRule],
                      wanted: TypeSpec) -> Dict[str, object]:
        """Parameter bindings this provider needs, checking claim conflicts."""
        if rule is None:
            return {}
        if wanted.subject is None:
            # No subject to bind. A live CE already claimed with bindings can
            # serve (it produces *some* subject's stream, and any-subject
            # matches); an unbound one or a fresh template instance cannot.
            if candidate.origin == "live":
                existing = self.bindings_of(candidate.entity_hex)
                if existing:
                    return dict(existing)
            raise CompositionError(
                f"{candidate.profile.name} needs a bound subject and the "
                f"wanted spec {wanted} has none"
            )
        bindings = rule.bind(wanted.subject)
        if candidate.origin == "live":
            existing = self.bindings_of(candidate.entity_hex)
            if existing is not None and existing != bindings:
                raise CompositionError(
                    f"{candidate.profile.name} already bound to {existing}, "
                    f"cannot rebind to {bindings}"
                )
        return bindings

    def _node_for(self, plan: ConfigurationPlan, candidate: _Candidate,
                  bindings: Dict[str, object]) -> PlanNode:
        if candidate.origin == "live":
            key = f"live:{candidate.entity_hex}"
            existing = plan.nodes.get(key)
            if existing is not None:
                if existing.bindings != bindings:
                    raise CompositionError(
                        f"plan would bind {candidate.profile.name} twice "
                        f"({existing.bindings} vs {bindings})"
                    )
                return existing
            return plan.add_node(PlanNode(
                key=key, kind="live", profile=candidate.profile,
                entity_hex=candidate.entity_hex, bindings=bindings))

        # Template: reuse an identical instantiation already in this plan
        # (e.g. both halves of a path share one objLocation template only if
        # bound identically — otherwise a second instance is created).
        for node in plan.nodes.values():
            if (node.kind == "template"
                    and node.template_name == candidate.template_name
                    and node.bindings == bindings):
                return node
        index = sum(1 for node in plan.nodes.values()
                    if node.kind == "template"
                    and node.template_name == candidate.template_name)
        key = f"tmpl:{candidate.template_name}#{index + 1}"
        return plan.add_node(PlanNode(
            key=key, kind="template", profile=candidate.profile,
            template_name=candidate.template_name, bindings=bindings))


class _PlanCheckpoint:
    """Undo buffer for backtracking over a partially-expanded plan."""

    def __init__(self, plan: ConfigurationPlan):
        self.plan = plan
        self.node_keys = set(plan.nodes)
        self.edge_count = len(plan.edges)

    def rollback(self) -> None:
        for key in list(self.plan.nodes):
            if key not in self.node_keys:
                del self.plan.nodes[key]
        del self.plan.edges[self.edge_count:]
