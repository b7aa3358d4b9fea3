"""The Configuration Manager: instantiates, shares and repairs configurations.

Section 3.2: "Once a complete configuration has been discovered (i.e. down
to the sensor/data level) to fulfill a query's requirements, the Context
Server sets up event subscriptions between the CEs involved."

Section 6: the infrastructure "will also adjust the composition of these
components dynamically in the case of environment changes, thus improving
service and fault tolerance while minimising user intervention" — that is
:meth:`ConfigurationManager.handle_entity_departure`: when a CE in a live
configuration crashes or leaves the range, the manager tears down the broken
subgraph, re-runs the resolver with the lost entity excluded, and splices in
the alternative (e.g. W-LAN location plus a converter after a door-sensor
chain dies). The C1 benchmark measures this repair path.

Graph reuse (Solar's contribution, adopted by SCI): a second query wanting a
stream an active configuration already delivers gets a new output
subscription on the existing graph instead of a duplicate graph.
"""

from __future__ import annotations

import enum
import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import CompositionError, NoProviderError
from repro.core.ids import GUID, GuidFactory
from repro.core.types import TypeSpec
from repro.composition.graph import ConfigurationPlan, PlanNode
from repro.composition.resolver import QueryResolver
from repro.composition.templates import TemplateRegistry
from repro.entities.derived import ConverterCE
from repro.entities.entity import ContextEntity
from repro.events.filters import (
    AndFilter,
    EventFilter,
    SourceFilter,
    SubjectFilter,
    TypeFilter,
)
from repro.events.mediator import EventMediator
from repro.net.transport import Network

logger = logging.getLogger(__name__)


class ConfigState(enum.Enum):
    ACTIVE = "active"
    REPAIRING = "repairing"
    DEAD = "dead"
    TORN_DOWN = "torn-down"


@dataclass
class _OutputDelivery:
    """One subscriber attached to a configuration's output stream."""

    subscriber_hex: str
    one_time: bool
    query_id: str


@dataclass
class Configuration:
    """A live instantiated subscription graph."""

    config_id: str
    wanted: TypeSpec
    plan: ConfigurationPlan
    state: ConfigState = ConfigState.ACTIVE
    #: plan node key -> live entity GUID hex
    node_guids: Dict[str, str] = field(default_factory=dict)
    #: GUIDs of entities this configuration spawned (and must stop)
    spawned: List[GUID] = field(default_factory=list)
    deliveries: List[_OutputDelivery] = field(default_factory=list)
    excluded: Set[str] = field(default_factory=set)
    repairs: int = 0
    created_at: float = 0.0

    def uses_entity(self, entity_hex: str) -> bool:
        return entity_hex in self.node_guids.values()


class ConfigurationManager:
    """Runs on (and is owned by) one Context Server."""

    def __init__(
        self,
        network: Network,
        host_id: str,
        mediator: EventMediator,
        resolver: QueryResolver,
        templates: TemplateRegistry,
        guid_factory: GuidFactory,
        range_addresses: Tuple[GUID, GUID, GUID],  # registrar, cs, mediator
        range_name: str,
        on_spawned: Optional[Callable[[ContextEntity], None]] = None,
        on_config_dead: Optional[Callable[[Configuration, str], None]] = None,
        max_repairs_per_config: Optional[int] = None,
    ):
        self.network = network
        self.host_id = host_id
        self.mediator = mediator
        self.resolver = resolver
        self.templates = templates
        self.guids = guid_factory
        self.range_registrar, self.range_cs, self.range_mediator = range_addresses
        self.range_name = range_name
        self.on_spawned = on_spawned or (lambda entity: None)
        self.on_config_dead = on_config_dead or (lambda config, reason: None)
        #: the paper's future-work item 3 asks for "bounds on acceptable
        #: adaptation"; this caps how often one configuration may be
        #: re-composed before it is declared dead (None = unbounded)
        self.max_repairs_per_config = max_repairs_per_config
        self._configs: Dict[str, Configuration] = {}
        #: the number in each configuration's id, ``cfg-<n>``, from 1
        self._config_numbers = itertools.count(1)
        #: wanted spec -> its configurations in creation order (graph reuse)
        self._by_wanted: Dict[TypeSpec, List[Configuration]] = {}
        #: live-entity claim ledger: hex -> (bindings, reference count)
        self._claims: Dict[str, Tuple[Dict[str, object], int]] = {}
        self.reuse_hits = 0
        self.builds = 0
        self.repairs = 0
        # handles resolved once (registry lookup is not free)
        metrics = network.obs.metrics
        self._reuse_hits_counter = metrics.counter(
            "config.graph.reuse_hits").series(range=range_name)
        self._builds_counter = metrics.counter(
            "config.graph.builds").series(range=range_name)
        self._repairs_counter = metrics.counter(
            "config.graph.repairs").series(range=range_name)

    # -- the resolver's view of the claim ledger --------------------------------------

    def bindings_of(self, entity_hex: str) -> Optional[Dict[str, object]]:
        claim = self._claims.get(entity_hex)
        return dict(claim[0]) if claim else None

    # -- building ------------------------------------------------------------------------

    def deliver(
        self,
        wanted: TypeSpec,
        subscriber_hex: str,
        query_id: str,
        one_time: bool = False,
        provider_predicate: Optional[Callable] = None,
        reuse: bool = True,
    ) -> Configuration:
        """Ensure a configuration delivering ``wanted`` exists and attach the
        subscriber to its output. Raises :class:`NoProviderError` when no
        provider chain exists."""
        obs = self.network.obs
        if reuse:
            existing = self._reusable(wanted)
            if existing is not None:
                self.reuse_hits += 1
                self._reuse_hits_counter.inc()
                with obs.tracer.span_if_active(
                        "config.resolve", range=self.range_name,
                        wanted=str(wanted), reused=existing.config_id):
                    self._attach_output(existing, subscriber_hex, one_time,
                                        query_id)
                return existing
        with obs.tracer.span_if_active(
                "config.resolve", range=self.range_name,
                wanted=str(wanted)) as span:
            plan = self.resolver.resolve(wanted,
                                         provider_predicate=provider_predicate)
            config = Configuration(
                config_id=f"cfg-{next(self._config_numbers)}",
                wanted=wanted,
                plan=plan,
                created_at=self.network.scheduler.now,
            )
            self._configs[config.config_id] = config
            self._by_wanted.setdefault(wanted, []).append(config)
            self._instantiate(config)
            self._attach_output(config, subscriber_hex, one_time, query_id)
            self.builds += 1
            self._builds_counter.inc()
            if span is not None:
                span.set(config=config.config_id, nodes=len(plan.nodes))
        return config

    def _reusable(self, wanted: TypeSpec) -> Optional[Configuration]:
        for config in self._by_wanted.get(wanted, ()):
            if config.state == ConfigState.ACTIVE:
                return config
        return None

    # -- instantiation -----------------------------------------------------------------------

    def _instantiate(self, config: Configuration) -> None:
        """Turn the plan into live entities, params and subscriptions."""
        plan = config.plan
        for key, node in plan.nodes.items():
            if node.kind == "live":
                config.node_guids[key] = node.entity_hex
                self._claim(node.entity_hex, node.bindings)
                self._apply_params(node.entity_hex, node.bindings)
            else:
                entity = self._spawn(node)
                config.spawned.append(entity.guid)
                config.node_guids[key] = entity.guid.hex
                # claim the instance's bindings too: once this objLocation is
                # bound to bob, a later query must not hijack and re-bind it
                self._claim(entity.guid.hex, node.bindings)
                if node.bindings:
                    self._apply_params(entity.guid.hex, node.bindings)
        for edge in plan.edges:
            producer_hex = config.node_guids[edge.producer]
            consumer_hex = config.node_guids[edge.consumer]
            self.mediator.add_subscription(
                subscriber=GUID.from_hex(consumer_hex),
                event_filter=self._edge_filter(producer_hex, edge.spec),
                owner=config.config_id,
            )

    def _spawn(self, node: PlanNode) -> ContextEntity:
        guid = self.guids.mint()
        if node.kind == "template":
            template = self.templates.get(node.template_name)
            entity = template.instantiate(guid, self.host_id, self.network)
        else:  # converter
            entity = ConverterCE(
                guid, self.host_id, self.network,
                input_spec=node.input_spec,
                output_spec=node.output_spec,
                chain=node.converter_chain,
            )
        entity.attach_to_range(self.range_registrar, self.range_cs,
                               self.range_mediator, self.range_name)
        self.on_spawned(entity)
        return entity

    def _apply_params(self, entity_hex: str, bindings: Dict[str, object]) -> None:
        """Bind parameters in process, before any subscription replay, so
        instantiation is race-free; a detached entity is not bound."""
        process = self.network.process(GUID.from_hex(entity_hex))
        if hasattr(process, "set_param"):
            for name, value in sorted(bindings.items()):
                process.set_param(name, value)

    @staticmethod
    def _edge_filter(producer_hex: str, spec: TypeSpec) -> EventFilter:
        parts: List[EventFilter] = [
            SourceFilter(producer_hex),
            TypeFilter(spec.type_name,
                       None if spec.representation == "any" else spec.representation),
        ]
        if spec.subject is not None:
            parts.append(SubjectFilter(spec.subject))
        return AndFilter(parts)

    def _attach_output(self, config: Configuration, subscriber_hex: str,
                       one_time: bool, query_id: str) -> None:
        output_hex = config.node_guids[config.plan.output_key]
        self.mediator.add_subscription(
            subscriber=GUID.from_hex(subscriber_hex),
            event_filter=self._edge_filter(output_hex, config.plan.output_spec),
            one_time=one_time,
            owner=config.config_id,
        )
        config.deliveries.append(_OutputDelivery(subscriber_hex, one_time, query_id))

    # -- claims ------------------------------------------------------------------------------

    def _claim(self, entity_hex: str, bindings: Dict[str, object]) -> None:
        existing = self._claims.get(entity_hex)
        if existing is None:
            self._claims[entity_hex] = (dict(bindings), 1)
            return
        held, count = existing
        if bindings and held != bindings:
            raise CompositionError(
                f"claim conflict on {entity_hex[:8]}: {held} vs {bindings}"
            )
        self._claims[entity_hex] = (held, count + 1)

    def _drop_claims(self, config: Configuration) -> None:
        for entity_hex in config.node_guids.values():
            claim = self._claims.get(entity_hex)
            if claim is None:
                continue
            held, count = claim
            if count <= 1:
                del self._claims[entity_hex]
            else:
                self._claims[entity_hex] = (held, count - 1)

    # -- teardown -------------------------------------------------------------------------------

    def teardown(self, config_id: str) -> None:
        config = self._configs.get(config_id)
        if config is None or config.state == ConfigState.TORN_DOWN:
            return
        self._dismantle(config)
        config.state = ConfigState.TORN_DOWN
        del self._configs[config_id]
        siblings = self._by_wanted[config.wanted]
        siblings.remove(config)
        if not siblings:
            del self._by_wanted[config.wanted]

    def cancel_query(self, query_id: str) -> None:
        """Detach one query's deliveries; tear down configs nobody uses."""
        for config in list(self._configs.values()):
            before = len(config.deliveries)
            config.deliveries = [d for d in config.deliveries
                                 if d.query_id != query_id]
            if before and not config.deliveries:
                self.teardown(config.config_id)

    def _dismantle(self, config: Configuration) -> None:
        self.mediator.remove_subscriptions_of(config.config_id)
        self._drop_claims(config)
        for guid in config.spawned:
            process = self.network.process(guid)
            if process is not None and hasattr(process, "stop"):
                process.stop()
        config.spawned.clear()
        config.node_guids.clear()

    # -- adaptivity -----------------------------------------------------------------------------

    def handle_entity_departure(self, entity_hex: str) -> List[Configuration]:
        """Re-compose every configuration that used a departed/crashed CE.

        Returns the configurations that were affected (repaired or dead).
        """
        affected = [config for config in self._configs.values()
                    if config.state == ConfigState.ACTIVE
                    and config.uses_entity(entity_hex)]
        for config in affected:
            self._repair(config, entity_hex)
        return affected

    def _repair(self, config: Configuration, failed_hex: str) -> None:
        # Repair is triggered by lease expiry / departure notices, outside
        # any query trace — so this span roots a fresh trace that the C1
        # benchmark (and test_adaptivity) reads the repair latency from.
        with self.network.obs.tracer.span(
                "config.repair", range=self.range_name,
                config=config.config_id, failed=failed_hex[:12]) as span:
            self._repair_inner(config, failed_hex, span)

    def _repair_inner(self, config: Configuration, failed_hex: str,
                      span) -> None:
        if (self.max_repairs_per_config is not None
                and config.repairs >= self.max_repairs_per_config):
            config.state = ConfigState.DEAD
            reason = (f"adaptation bound reached "
                      f"({self.max_repairs_per_config} repairs)")
            logger.warning("configuration %s: %s", config.config_id, reason)
            if span is not None:
                span.set(outcome="dead", reason=reason)
            self._dismantle(config)
            self.on_config_dead(config, reason)
            return
        config.state = ConfigState.REPAIRING
        config.excluded.add(failed_hex)
        # the spawned CEs we are about to stop stay registered until their
        # deregistration propagates; exclude them so re-resolution cannot
        # wire a freshly-killed instance back in
        config.excluded.update(guid.hex for guid in config.spawned)
        deliveries = list(config.deliveries)
        self._dismantle(config)
        try:
            config.plan = self.resolver.resolve(
                config.wanted, exclude=frozenset(config.excluded))
        except NoProviderError as exc:
            config.state = ConfigState.DEAD
            logger.warning("configuration %s unrepairable: %s",
                           config.config_id, exc)
            if span is not None:
                span.set(outcome="unrepairable", reason=str(exc))
            self.on_config_dead(config, str(exc))
            return
        self._instantiate(config)
        config.deliveries = []
        for delivery in deliveries:
            self._attach_output(config, delivery.subscriber_hex,
                                delivery.one_time, delivery.query_id)
        config.state = ConfigState.ACTIVE
        config.repairs += 1
        self.repairs += 1
        self._repairs_counter.inc()
        if span is not None:
            span.set(outcome="repaired", repair_number=config.repairs)
        logger.info("configuration %s repaired around %s (repair #%d)",
                    config.config_id, failed_hex[:8], config.repairs)

    # -- introspection ------------------------------------------------------------------------------

    def configurations(self) -> List[Configuration]:
        return list(self._configs.values())

    def config(self, config_id: str) -> Optional[Configuration]:
        return self._configs.get(config_id)

    def active_count(self) -> int:
        return sum(1 for c in self._configs.values()
                   if c.state == ConfigState.ACTIVE)
