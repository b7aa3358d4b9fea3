"""CE templates: factories the infrastructure can instantiate on demand.

The Context Toolkit's weakness (Section 2) is that components "become fixed"
at design time. SCI's answer is that the infrastructure "will compose the
context processing components and data sources automatically". For that the
Context Server must be able to *create* processing components — a second
objLocationCE when two queries track different people, a replacement when
one crashes. Deployments therefore register templates: a prototype profile
(what instances will look like, for the resolver's type matching) plus a
factory that builds a live CE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.errors import CompositionError
from repro.core.ids import GUID
from repro.entities.entity import ContextEntity
from repro.entities.profile import Profile
from repro.net.transport import Network

#: factory signature: (guid, host_id, network) -> live ContextEntity
CEFactory = Callable[[GUID, str, Network], ContextEntity]


@dataclass
class CETemplate:
    """A named, instantiable kind of Context Entity."""

    name: str
    prototype: Profile
    factory: CEFactory
    #: upper bound on concurrently live instances (None = unbounded)
    max_instances: Optional[int] = None
    instances_created: int = field(default=0, init=False)

    def instantiate(self, guid: GUID, host_id: str, network: Network) -> ContextEntity:
        if self.max_instances is not None and self.instances_created >= self.max_instances:
            raise CompositionError(
                f"template {self.name!r} exhausted ({self.max_instances} instances)"
            )
        entity = self.factory(guid, host_id, network)
        self.instances_created += 1
        return entity


class TemplateRegistry:
    """The templates one Context Server can draw on.

    Append-only: a template is never replaced or removed, so the count of
    templates says which ones are new since a reader last looked (the
    resolver's provider index files them that way).
    """

    def __init__(self):
        self._templates: Dict[str, CETemplate] = {}

    def register(self, template: CETemplate) -> CETemplate:
        if template.name in self._templates:
            raise CompositionError(f"duplicate template: {template.name!r}")
        self._templates[template.name] = template
        return template

    def get(self, name: str) -> CETemplate:
        try:
            return self._templates[name]
        except KeyError:
            raise CompositionError(f"unknown template: {name!r}") from None

    def known(self, name: str) -> bool:
        return name in self._templates

    def all_templates(self) -> List[CETemplate]:
        return list(self._templates.values())

    def prototypes(self) -> List[Profile]:
        return [template.prototype for template in self._templates.values()]

    def __len__(self) -> int:
        return len(self._templates)
