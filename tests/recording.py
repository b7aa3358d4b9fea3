"""A CAA that records what its hooks are handed, for the tests to read.

An application keeps no history of its own (:mod:`repro.entities.entity`):
a test that inspects what one consumed builds this one, directly or with
``sci.create_application(..., app_class=RecordingApp)``, or wraps the hook
of one it did not build with :func:`record_answers`.
"""

from typing import Any, Dict, List, Optional

from repro.entities.entity import ContextAwareApplication
from repro.events.event import ContextEvent


class RecordingApp(ContextAwareApplication):
    """Keeps every event and every ``query-result``'s fields, in order."""

    def __init__(self, profile, host_id, network):
        super().__init__(profile, host_id, network)
        self.events: List[ContextEvent] = []
        self.results: List[Dict[str, Any]] = []

    def on_event(self, event: ContextEvent, sub_id: Optional[int]) -> None:
        self.events.append(event)

    def on_query_result(self, query_id: str, fields: Dict[str, Any]) -> None:
        self.results.append(fields)

    def last_event_value(self) -> Any:
        return self.events[-1].value if self.events else None

    def events_of_type(self, type_name: str) -> List[ContextEvent]:
        return [event for event in self.events if event.type_name == type_name]


def record_answers(app: ContextAwareApplication) -> Dict[str, Dict[str, Any]]:
    """Keep the fields of each ``query-result`` an already built ``app`` is
    handed, by query id, around its own ``on_query_result``."""
    answers: Dict[str, Dict[str, Any]] = {}
    hook = app.on_query_result

    def record(query_id: str, fields: Dict[str, Any]) -> None:
        answers[query_id] = fields
        hook(query_id, fields)

    app.on_query_result = record
    return answers
