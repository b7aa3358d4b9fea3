"""Configuration plans — the event subscription graphs of Section 3.2.

A :class:`ConfigurationPlan` is the resolver's output: a DAG whose nodes are
providers (live CEs, template instantiations, or converter insertions) and
whose edges are the typed event streams one node consumes from another. The
Configuration Manager turns a plan into reality by instantiating template
and converter nodes and creating mediator subscriptions for every edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import CompositionError, CycleError
from repro.core.types import Converter, TypeSpec
from repro.entities.profile import Profile


@dataclass
class PlanNode:
    """One provider in a configuration plan.

    ``kind``:

    * ``live`` — an already-registered CE (``entity_hex`` set);
    * ``template`` — to be instantiated from ``template_name``;
    * ``converter`` — to be built from ``converter_chain`` bridging
      ``input_spec`` to ``output_spec``.
    """

    key: str
    kind: str
    profile: Profile
    entity_hex: Optional[str] = None
    template_name: Optional[str] = None
    bindings: Dict[str, object] = field(default_factory=dict)
    converter_chain: Tuple[Converter, ...] = ()
    input_spec: Optional[TypeSpec] = None
    output_spec: Optional[TypeSpec] = None

    def __post_init__(self):
        if self.kind not in ("live", "template", "converter"):
            raise CompositionError(f"unknown plan node kind: {self.kind!r}")
        if self.kind == "live" and not self.entity_hex:
            raise CompositionError(f"live node {self.key} missing entity_hex")
        if self.kind == "template" and not self.template_name:
            raise CompositionError(f"template node {self.key} missing template_name")
        if self.kind == "converter" and not self.converter_chain:
            raise CompositionError(f"converter node {self.key} missing chain")

    def __str__(self) -> str:
        label = self.profile.name
        if self.bindings:
            bound = ", ".join(f"{k}={v}" for k, v in sorted(self.bindings.items()))
            label += f"({bound})"
        return f"{self.kind}:{label}"


@dataclass
class PlanEdge:
    """Consumer subscribes to producer's stream matching ``spec``."""

    producer: str
    consumer: str
    spec: TypeSpec

    def __str__(self) -> str:
        return f"{self.producer} --{self.spec}--> {self.consumer}"


class ConfigurationPlan:
    """A validated DAG of providers for one resolved type spec."""

    def __init__(self, wanted: TypeSpec):
        self.wanted = wanted
        self.nodes: Dict[str, PlanNode] = {}
        self.edges: List[PlanEdge] = []
        self.output_key: Optional[str] = None
        #: the spec the output node actually emits (matches ``wanted`` after
        #: any converter insertion)
        self.output_spec: Optional[TypeSpec] = None

    # -- construction ------------------------------------------------------------

    def add_node(self, node: PlanNode) -> PlanNode:
        """Add a node; re-adding the same key returns the existing node
        (shared sub-providers dedup naturally by key)."""
        existing = self.nodes.get(node.key)
        if existing is not None:
            return existing
        self.nodes[node.key] = node
        return node

    def add_edge(self, producer_key: str, consumer_key: str, spec: TypeSpec) -> PlanEdge:
        for key in (producer_key, consumer_key):
            if key not in self.nodes:
                raise CompositionError(f"edge references unknown node: {key}")
        edge = PlanEdge(producer_key, consumer_key, spec)
        if not any(e.producer == edge.producer and e.consumer == edge.consumer
                   and e.spec == edge.spec for e in self.edges):
            self.edges.append(edge)
        return edge

    def set_output(self, key: str, spec: TypeSpec) -> None:
        if key not in self.nodes:
            raise CompositionError(f"output references unknown node: {key}")
        self.output_key = key
        self.output_spec = spec

    # -- validation / introspection --------------------------------------------------

    def _longest_chains(self) -> Dict[str, int]:
        """Node -> edges on the longest producer chain ending at it.

        One Kahn pass over the edges (parallel edges counted once each);
        raises :class:`CycleError` when some nodes never reach in-degree 0.
        """
        indegree = dict.fromkeys(self.nodes, 0)
        consumers: Dict[str, List[str]] = {key: [] for key in self.nodes}
        for edge in self.edges:
            indegree[edge.consumer] += 1
            consumers[edge.producer].append(edge.consumer)
        longest = dict.fromkeys(self.nodes, 0)
        ready = deque(key for key, count in indegree.items() if count == 0)
        ordered = 0
        while ready:
            key = ready.popleft()
            ordered += 1
            for consumer in consumers[key]:
                longest[consumer] = max(longest[consumer], longest[key] + 1)
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if ordered < len(self.nodes):
            cyclic = sorted(key for key, count in indegree.items() if count)
            raise CycleError(f"configuration contains a cycle through {cyclic}")
        return longest

    def validate(self) -> None:
        """Check the plan is a rooted DAG with live data sources at the leaves."""
        if self.output_key is None or self.output_spec is None:
            raise CompositionError("plan has no output node")
        self._longest_chains()  # raises CycleError
        producers: Dict[str, List[str]] = {key: [] for key in self.nodes}
        for edge in self.edges:
            producers[edge.consumer].append(edge.producer)
        reachable = {self.output_key}
        frontier = [self.output_key]
        while frontier:
            for producer in producers[frontier.pop()]:
                if producer not in reachable:
                    reachable.add(producer)
                    frontier.append(producer)
        unreachable = set(self.nodes) - reachable
        if unreachable:
            raise CompositionError(
                f"plan nodes do not feed the output: {sorted(unreachable)}"
            )
        for key in self.source_keys():
            node = self.nodes[key]
            if node.kind == "converter":
                raise CompositionError(f"converter {key} has no input stream")

    def source_keys(self) -> List[str]:
        """Nodes with no incoming edges — the sensor/data level."""
        consumers = {edge.consumer for edge in self.edges}
        has_producers = {edge.producer for edge in self.edges}
        keys = set(self.nodes) - consumers
        # an isolated single-node plan is its own source
        return sorted(keys) if keys else sorted(set(self.nodes) - has_producers)

    def inputs_of(self, key: str) -> List[PlanEdge]:
        return [edge for edge in self.edges if edge.consumer == key]

    def consumers_of(self, key: str) -> List[PlanEdge]:
        return [edge for edge in self.edges if edge.producer == key]

    def depth(self) -> int:
        """Longest producer chain feeding the output (1 = direct source)."""
        if not self.nodes:
            return 0
        return max(self._longest_chains().values()) + 1

    def node_count(self) -> int:
        return len(self.nodes)

    def live_entity_hexes(self) -> List[str]:
        return [node.entity_hex for node in self.nodes.values()
                if node.kind == "live" and node.entity_hex]

    def describe(self) -> str:
        """Human-readable rendering for logs and EXPERIMENTS.md."""
        lines = [f"wanted={self.wanted} depth={self.depth()}"]
        for edge in self.edges:
            lines.append(f"  {self.nodes[edge.producer]} --{edge.spec}--> "
                         f"{self.nodes[edge.consumer]}")
        if not self.edges and self.output_key:
            lines.append(f"  {self.nodes[self.output_key]} (direct)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"ConfigurationPlan(nodes={len(self.nodes)}, "
                f"edges={len(self.edges)}, wanted={self.wanted})")
