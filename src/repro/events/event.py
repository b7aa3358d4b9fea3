"""The typed context event — SCI's unit of contextual information.

Section 3.1: "A CE allows its entity to communicate by means of producing
and consuming typed events." An event carries a :class:`~repro.core.types.TypeSpec`
(what kind of information, in which representation, about which subject), the
value itself, provenance and freshness metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.ids import GUID
from repro.core.types import TypeSpec, spec_from_wire


@dataclass(frozen=True, slots=True)
class ContextEvent:
    """One piece of typed contextual information.

    ``spec``
        The semantic type / representation / subject of the information
        ("location[symbolic] of bob").
    ``value``
        The representation-specific payload (a room name, a coordinate pair,
        a path, a printer status record, ...).
    ``source``
        GUID of the Context Entity that produced the event.
    ``timestamp``
        Simulated time of production; consumers derive freshness from it.
    ``attributes``
        Free-form quality/annotation attributes (accuracy, confidence, ...).
    """

    spec: TypeSpec
    value: Any
    source: GUID
    timestamp: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def type_name(self) -> str:
        return self.spec.type_name

    @property
    def representation(self) -> str:
        return self.spec.representation

    @property
    def subject(self) -> Optional[object]:
        return self.spec.subject

    def age(self, now: float) -> float:
        """Freshness: how old this event is at simulated time ``now``."""
        return max(0.0, now - self.timestamp)

    def derive(
        self,
        spec: TypeSpec,
        value: Any,
        source: GUID,
        timestamp: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> "ContextEvent":
        """Build a downstream event that inherits this event's attributes.

        Derived events (objLocation from doorSensor, path from locations)
        keep upstream quality annotations unless explicitly overridden, so
        quality degradation is traceable through a configuration.
        """
        merged = dict(self.attributes)
        merged.update(attributes or {})
        return ContextEvent(spec=spec, value=value, source=source,
                            timestamp=timestamp, attributes=merged)

    def to_wire(self) -> Dict[str, Any]:
        """Flatten for inclusion in a message payload."""
        return {
            "type": self.spec.type_name,
            "representation": self.spec.representation,
            "subject": self.spec.subject,
            "quality": list(self.spec.quality),
            "value": self.value,
            "source": self.source.hex,
            "timestamp": self.timestamp,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ContextEvent":
        """Rebuild an event, refusing one the mediator cannot hold: its
        retained store keys on (type, representation, subject)
        (:func:`~repro.core.types.spec_from_wire`) and consumers order fixes
        by timestamp. Raises ``KeyError`` or ``TypeError``."""
        spec, timestamp = spec_from_wire(data), data["timestamp"]
        if (not isinstance(timestamp, (int, float))
                or isinstance(timestamp, bool)):
            raise TypeError(f"timestamp must be a number, got "
                            f"{type(timestamp).__name__}")
        # positional, in field order: one event per delivery is rebuilt here
        return cls(spec, data["value"], GUID.from_hex(data["source"]),
                   timestamp, dict(data.get("attributes", {})))

    def __str__(self) -> str:
        return f"Event<{self.spec} = {self.value!r} @t={self.timestamp:.2f}>"
