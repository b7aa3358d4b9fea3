"""The shared filter table: the Event Mediator's one dispatch engine.

:mod:`repro.query.opgraph.engine` keeps one node per distinct filter
(canonical key), with the subscriptions it serves as sinks, and evaluates
each candidate node once per publish.
"""

from repro.query.opgraph.engine import OperatorGraph

__all__ = ["OperatorGraph"]
