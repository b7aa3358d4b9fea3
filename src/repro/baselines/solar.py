"""A miniature Solar (Chen & Kotz — the paper's ref [5]).

Quoting the SCI paper: "all the communication between context components is
through events. Solar supports dynamic composition of context components ...
It requires the application developer to explicitly specify the composition
graph of context components. The infrastructure will try to find the common
parts of context processing graphs of different applications and will reuse
them, thus improving scalability."

And the critique under test: "they have not addressed the issue of
robustness ... The requirement that the application developer has to
explicitly choose data source, context operators and specify the
context-processing graph will affect the robustness of the context system."

So: applications hand the platform explicit operator trees naming concrete
sources; the platform deduplicates structurally identical subtrees (measured
by ``operators_instantiated`` vs ``operators_requested``); when a named
source dies the subscription simply goes quiet until the *developer* submits
a replacement graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.common import Environment


@dataclass(frozen=True)
class OperatorSpec:
    """An explicit operator-tree specification.

    Leaves name concrete sources (``source_name`` set); interior nodes name
    an operator and its children. This is the "composition graph of context
    components" the developer must write by hand.
    """

    operator: str = ""
    source_name: Optional[str] = None
    children: Tuple["OperatorSpec", ...] = ()

    @classmethod
    def source(cls, name: str) -> "OperatorSpec":
        return cls(source_name=name)

    @classmethod
    def op(cls, operator: str, *children: "OperatorSpec") -> "OperatorSpec":
        return cls(operator=operator, children=tuple(children))

    def signature(self) -> str:
        """Canonical form used for common-subgraph detection."""
        if self.source_name is not None:
            return f"src:{self.source_name}"
        inner = ",".join(child.signature() for child in self.children)
        return f"{self.operator}({inner})"


class _Operator:
    """One instantiated node of a Solar graph."""

    def __init__(self, spec: OperatorSpec, fn: Optional[Callable] = None):
        self.spec = spec
        self.fn = fn or (lambda values: values[-1])
        self.last_inputs: Dict[int, Any] = {}
        self._callbacks: List[Callable[[Any], None]] = []
        self.events_out = 0

    def feed(self, child_index: int, value: Any) -> None:
        self.last_inputs[child_index] = value
        ordered = [self.last_inputs[index]
                   for index in sorted(self.last_inputs)]
        result = self.fn(ordered)
        self.events_out += 1
        for callback in list(self._callbacks):
            callback(result)

    def register_callback(self, callback: Callable[[Any], None]) -> None:
        self._callbacks.append(callback)


class SolarPlatform:
    """Instantiates explicit operator graphs with common-subgraph reuse."""

    def __init__(self, environment: Environment,
                 operator_functions: Optional[Dict[str, Callable]] = None):
        self.environment = environment
        self.operator_functions = dict(operator_functions or {})
        self._instantiated: Dict[str, _Operator] = {}
        self.operators_requested = 0
        self.operators_instantiated = 0

    def deploy(self, spec: OperatorSpec,
               deliver: Callable[[Any], None]) -> "_Operator":
        """Instantiate (or reuse) the graph for ``spec``; wire delivery."""
        root = self._instantiate(spec)
        root.register_callback(deliver)
        return root

    def _instantiate(self, spec: OperatorSpec) -> _Operator:
        self.operators_requested += 1
        signature = spec.signature()
        existing = self._instantiated.get(signature)
        if existing is not None:
            return existing  # common subgraph reuse

        if spec.source_name is not None:
            source = self.environment.source(spec.source_name)
            operator = _Operator(spec)
            source.subscribe(
                lambda _source, value, op=operator: op.feed(0, value))
            if not source.alive:
                # Solar accepts the spec; the subscription just never fires.
                pass
        else:
            fn = self.operator_functions.get(spec.operator)
            operator = _Operator(spec, fn)
            for index, child_spec in enumerate(spec.children):
                child = self._instantiate(child_spec)
                child.register_callback(
                    lambda value, op=operator, i=index: op.feed(i, value))
        self._instantiated[signature] = operator
        self.operators_instantiated += 1
        return operator

    def reuse_ratio(self) -> float:
        """requested/instantiated: > 1 means sharing paid off."""
        if not self.operators_instantiated:
            return 0.0
        return self.operators_requested / self.operators_instantiated


class SolarApp:
    """An application that must author its own graphs (and re-author them
    after failures — that is Solar's robustness story)."""

    def __init__(self, name: str, platform: SolarPlatform):
        self.name = name
        self.platform = platform
        self.received: List[Any] = []
        self._specs: List[OperatorSpec] = []
        self.graphs_authored = 0

    def subscribe_graph(self, spec: OperatorSpec) -> None:
        self._specs.append(spec)
        self.graphs_authored += 1
        self.platform.deploy(spec, self.received.append)

    def satisfied(self) -> bool:
        """All leaves of all authored graphs still alive?"""
        def leaves_alive(spec: OperatorSpec) -> bool:
            if spec.source_name is not None:
                return self.platform.environment.source(spec.source_name).alive
            return all(leaves_alive(child) for child in spec.children)

        return bool(self._specs) and all(leaves_alive(spec)
                                         for spec in self._specs)
