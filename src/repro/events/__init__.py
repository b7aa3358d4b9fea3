"""Typed context events, filters, subscriptions and the Event Mediator.

Section 3.1: "Event Mediator: Manages the establishment, maintenance and
removal of event subscriptions between Context Entities and Context Aware
Applications." All context data in SCI flows as typed events through a
range's mediator.
"""

from repro.events.event import ContextEvent
from repro.events.filters import (
    EventFilter,
    TypeFilter,
    SubjectFilter,
    SourceFilter,
    AttributeFilter,
    AndFilter,
    OrFilter,
    NotFilter,
    MatchAll,
    filter_from_spec,
)
from repro.events.subscription import Subscription
from repro.events.mediator import EventMediator

__all__ = [
    "ContextEvent",
    "EventFilter",
    "TypeFilter",
    "SubjectFilter",
    "SourceFilter",
    "AttributeFilter",
    "AndFilter",
    "OrFilter",
    "NotFilter",
    "MatchAll",
    "filter_from_spec",
    "Subscription",
    "EventMediator",
]
