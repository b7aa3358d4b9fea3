"""CE Profiles — the metadata the Query Resolver matches on.

Section 4: "CE Profiles consist of simple Metadata about entity inputs and
outputs". Section 3.1 adds that entities are "People, Software, Places,
Devices and Artifacts". A profile declares:

* ``outputs``: the typed event streams the entity can produce,
* ``inputs``: the typed event streams it must consume to do so,
* ``params``: value slots bound at configuration time (the objLocationCE of
  Figure 3 "takes an entity ID as an input" — an ID is a binding, not an
  event stream, so it is a parameter here),
* ``attributes``: free metadata (home room, owner, capabilities) that Where
  and Which clauses select on,
* ``quality``: quality-of-context figures the Which clause can rank by.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.ids import GUID
from repro.core.types import TypeSpec, spec_from_wire


def provides_context(kind: str) -> bool:
    """Whether a registration of ``kind`` (``RegistrationRecord.kind``) can
    provide context: CEs and infrastructure do, CAAs only consume it."""
    return kind in ("ce", "infrastructure")


class EntityClass(enum.Enum):
    """The five entity kinds of Section 3 / Figure 1."""

    PERSON = "person"
    PLACE = "place"
    DEVICE = "device"
    SOFTWARE = "software"
    ARTIFACT = "artifact"


@dataclass
class Profile:
    """Metadata describing one entity to the infrastructure."""

    entity_id: GUID
    name: str
    entity_class: EntityClass = EntityClass.SOFTWARE
    outputs: List[TypeSpec] = field(default_factory=list)
    inputs: List[TypeSpec] = field(default_factory=list)
    params: Dict[str, str] = field(default_factory=dict)
    attributes: Dict[str, Any] = field(default_factory=dict)
    quality: Dict[str, float] = field(default_factory=dict)

    def provides_type(self, type_name: str) -> bool:
        return any(spec.type_name == type_name for spec in self.outputs)

    def output_of_type(self, type_name: str) -> Optional[TypeSpec]:
        for spec in self.outputs:
            if spec.type_name == type_name:
                return spec
        return None

    @property
    def is_source(self) -> bool:
        """True for sensor-level entities: no event inputs required."""
        return not self.inputs

    # -- wire form -----------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "entity_id": self.entity_id.hex,
            "name": self.name,
            "entity_class": self.entity_class.value,
            "outputs": [_spec_to_wire(spec) for spec in self.outputs],
            "inputs": [_spec_to_wire(spec) for spec in self.inputs],
            "params": dict(self.params),
            "attributes": dict(self.attributes),
            "quality": dict(self.quality),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Profile":
        return cls(
            entity_id=GUID.from_hex(data["entity_id"]),
            name=data["name"],
            entity_class=EntityClass(data["entity_class"]),
            outputs=[spec_from_wire(item) for item in data.get("outputs", [])],
            inputs=[spec_from_wire(item) for item in data.get("inputs", [])],
            params=dict(data.get("params", {})),
            attributes=dict(data.get("attributes", {})),
            quality=dict(data.get("quality", {})),
        )

    def __str__(self) -> str:
        outs = ", ".join(str(spec) for spec in self.outputs) or "-"
        ins = ", ".join(str(spec) for spec in self.inputs) or "-"
        return f"Profile({self.name}: {ins} -> {outs})"


def _spec_to_wire(spec: TypeSpec) -> Dict[str, Any]:
    return {
        "type": spec.type_name,
        "representation": spec.representation,
        "subject": spec.subject,
        "quality": list(spec.quality),
    }

