"""The Figure-3 floor-map application: live path display between entities.

"Consider a CAA on a mobile device that displays a building floor map and
can visually represent the path from one location to another ... a user,
Bob, wishes to display the path between himself and his colleague John."

The app submits one subscription query for ``path[rooms]@<from>-><to>``; the
infrastructure composes doorSensor -> objLocation -> path (Figure 3) and the
display updates on every event. ``render()`` returns the ASCII rendering an
actual device would draw.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, Optional

from repro.entities.entity import ContextAwareApplication
from repro.events.event import ContextEvent
from repro.query.model import Query, QueryBuilder

logger = logging.getLogger(__name__)


class PathDisplayApp(ContextAwareApplication):
    """Displays the live path between two tracked entities."""

    def __init__(self, profile, host_id, network,
                 from_entity: str = "", to_entity: str = ""):
        super().__init__(profile, host_id, network)
        self.from_entity = from_entity
        self.to_entity = to_entity
        self.current_path: Optional[Dict[str, Any]] = None
        #: path events displayed so far
        self.updates_seen = 0
        self.query: Optional[Query] = None

    def track(self, from_entity: Optional[str] = None,
              to_entity: Optional[str] = None) -> Query:
        """(Re)start tracking; queues the query if currently out of range."""
        if from_entity:
            self.from_entity = from_entity
        if to_entity:
            self.to_entity = to_entity
        if not self.from_entity or not self.to_entity:
            raise ValueError("track() needs both endpoints")
        if self.query is not None:
            self.cancel_query(self.query.query_id)
        self.query = (QueryBuilder(self.from_entity)
                      .subscribe("path", "rooms",
                                 subject=f"{self.from_entity}->{self.to_entity}")
                      .build())
        self.queue_query(self.query)
        return self.query

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        if event.type_name != "path":
            return
        self.current_path = dict(event.value)
        self.updates_seen += 1
        logger.info("%s: path now %s (%.1fm)", self.name,
                    " -> ".join(self.current_path["rooms"]),
                    self.current_path["cost"])

    # -- display -----------------------------------------------------------------

    def render(self) -> str:
        """What the device screen shows."""
        if self.current_path is None:
            return f"[{self.name}] locating {self.from_entity} and {self.to_entity}..."
        rooms = " -> ".join(self.current_path["rooms"])
        return (f"[{self.name}] {self.from_entity} to {self.to_entity}: "
                f"{rooms}  ({self.current_path['cost']:.1f} m)")
