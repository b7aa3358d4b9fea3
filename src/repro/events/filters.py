"""A small filter algebra over context events.

Subscriptions (Section 3.1's Event Mediator) carry a filter deciding which
published events reach the subscriber. Filters compose with And/Or/Not and
serialise to plain dictionaries so they can travel inside messages — a
subscription established by a remote Context Server must ship its filter to
the mediator that evaluates it.

Every filter also has a **canonical form** (:meth:`EventFilter.canonical_spec`
/ :meth:`EventFilter.canonical_key`): nested And-of-And and Or-of-Or trees
are flattened, children are sorted by their canonical key and exact
duplicates dropped, and single-child conjunctions/disjunctions collapse to
the child. Structural ``__eq__``/``__hash__`` compare canonical keys, so two
spec-identical filters built in different construction orders — e.g.
``And([type, subject])`` vs ``And([subject, type])`` — hash and compare
equal. The mediator's filter table (:mod:`repro.query.opgraph`) shares one
node per key. Canonicalisation never changes ``matches`` semantics:
``to_spec()`` (the wire form) and the evaluation order of ``parts`` keep
construction order; only the canonical view is normalised (And/Or are
commutative, associative and idempotent over pure predicates).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import SCIError
from repro.events.event import ContextEvent


class FilterError(SCIError):
    """A filter specification is malformed."""


def spec_key(value: Any) -> str:
    """A deterministic, order-insensitive string key for a spec value.

    Dict keys are sorted, sequences keep their order, and scalars are
    type-tagged so ``1`` / ``1.0`` / ``"1"`` / ``True`` stay distinct.
    Non-JSON values (an exotic subject object) fall back to ``repr``,
    which is stable within a run — enough for structural dedup.
    """
    if isinstance(value, dict):
        inner = ",".join(f"{key}={spec_key(value[key])}"
                         for key in sorted(value))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(spec_key(item) for item in value) + "]"
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, (int, float)):
        return f"n{type(value).__name__[0]}:{value!r}"
    if isinstance(value, str):
        return "s:" + value
    return f"{type(value).__name__}:{value!r}"


class EventFilter:
    """Base class: a predicate over :class:`ContextEvent`."""

    #: lazily cached canonical key (filters are immutable by convention)
    _canonical_key: Optional[str] = None

    def matches(self, event: ContextEvent) -> bool:
        raise NotImplementedError

    # composition sugar
    def __and__(self, other: "EventFilter") -> "AndFilter":
        return AndFilter([self, other])

    def __or__(self, other: "EventFilter") -> "OrFilter":
        return OrFilter([self, other])

    def __invert__(self) -> "NotFilter":
        return NotFilter(self)

    def to_spec(self) -> Dict[str, Any]:
        raise NotImplementedError

    # -- canonical form -------------------------------------------------------

    def canonical_spec(self) -> Dict[str, Any]:
        """The normalised spec: And/Or flattened, sorted, deduplicated.

        Leaf filters are already canonical — their spec is their canonical
        spec. Composite filters override this.
        """
        return self.to_spec()

    def canonical_key(self) -> str:
        """A structural hash key: equal iff the filters are spec-identical
        up to And/Or child order, nesting and duplication."""
        key = self._canonical_key
        if key is None:
            key = self._canonical_key = self._render_key()
        return key

    def _render_key(self) -> str:
        return spec_key(self.canonical_spec())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventFilter):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.canonical_key())


class MatchAll(EventFilter):
    """Matches every event (the default subscription filter)."""

    def matches(self, event: ContextEvent) -> bool:
        return True

    def to_spec(self) -> Dict[str, Any]:
        return {"op": "all"}


class TypeFilter(EventFilter):
    """Match events of one semantic type (optionally one representation).

    Subtype awareness lives in the resolver, not here: by the time a
    subscription exists, the concrete event type is known.
    """

    def __init__(self, type_name: str, representation: Optional[str] = None):
        self.type_name = type_name
        self.representation = representation

    def matches(self, event: ContextEvent) -> bool:
        if event.type_name != self.type_name:
            return False
        if self.representation is not None and event.representation != self.representation:
            return False
        return True

    def to_spec(self) -> Dict[str, Any]:
        return {"op": "type", "type": self.type_name, "representation": self.representation}


class SubjectFilter(EventFilter):
    """Match events about one subject (e.g. location *of Bob*)."""

    def __init__(self, subject: object):
        self.subject = subject

    def matches(self, event: ContextEvent) -> bool:
        return event.subject == self.subject

    def to_spec(self) -> Dict[str, Any]:
        return {"op": "subject", "subject": self.subject}


class SourceFilter(EventFilter):
    """Match events produced by one Context Entity.

    This is what configuration edges compile to: a downstream CE subscribes
    to exactly its upstream providers (Figure 3's subscription graph).
    """

    def __init__(self, source_hex: str):
        self.source_hex = source_hex

    def matches(self, event: ContextEvent) -> bool:
        return event.source.hex == self.source_hex

    def to_spec(self) -> Dict[str, Any]:
        return {"op": "source", "source": self.source_hex}


_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "contains": lambda a, b: b in a,
}


class AttributeFilter(EventFilter):
    """Compare an event attribute (or the value itself) against a constant.

    ``key`` addresses ``event.attributes[key]``; the special key ``"value"``
    addresses ``event.value``. Missing keys never match.
    """

    def __init__(self, key: str, op: str, constant: Any):
        if op not in _OPERATORS:
            raise FilterError(f"unknown operator: {op!r}")
        self.key = key
        self.op = op
        self.constant = constant

    def matches(self, event: ContextEvent) -> bool:
        if self.key == "value":
            actual = event.value
        elif self.key in event.attributes:
            actual = event.attributes[self.key]
        else:
            return False
        try:
            return _OPERATORS[self.op](actual, self.constant)
        except TypeError:
            return False

    def to_spec(self) -> Dict[str, Any]:
        return {"op": "attr", "key": self.key, "cmp": self.op, "constant": self.constant}


def _canonical_children(composite: "EventFilter") -> List["EventFilter"]:
    """Flatten same-op nesting, sort children by canonical key and dedupe.

    ``And(And(a, b), c)`` and ``And(c, b, a)`` both normalise to the same
    sorted child list; duplicate children (idempotence) collapse to one.
    """
    unique: Dict[str, EventFilter] = {}

    def flatten(node: EventFilter) -> None:
        if type(node) is type(composite):
            for part in node.parts:  # type: ignore[attr-defined]
                flatten(part)
        else:
            unique[node.canonical_key()] = node

    flatten(composite)
    return [unique[key] for key in sorted(unique)]


class _Junction(EventFilter):
    """And/Or over ``parts``; subclasses name the ``op`` and how it matches."""

    op: str

    def __init__(self, parts: List[EventFilter]):
        if not parts:
            raise FilterError(f"empty {self.op.upper()} filter")
        self.parts = list(parts)

    def to_spec(self) -> Dict[str, Any]:
        return {"op": self.op, "parts": [part.to_spec() for part in self.parts]}

    def canonical_spec(self) -> Dict[str, Any]:
        parts = [child.canonical_spec() for child in _canonical_children(self)]
        if len(parts) == 1:
            return parts[0]
        return {"op": self.op, "parts": parts}

    def _render_key(self) -> str:
        # == spec_key(canonical_spec()), composed from the children's cached keys
        keys = [child.canonical_key() for child in _canonical_children(self)]
        if len(keys) == 1:
            return keys[0]
        return "{op=s:" + self.op + ",parts=[" + ",".join(keys) + "]}"


class AndFilter(_Junction):
    op = "and"

    def matches(self, event: ContextEvent) -> bool:
        return all(part.matches(event) for part in self.parts)


class OrFilter(_Junction):
    op = "or"

    def matches(self, event: ContextEvent) -> bool:
        return any(part.matches(event) for part in self.parts)


class NotFilter(EventFilter):
    def __init__(self, inner: EventFilter):
        self.inner = inner

    def matches(self, event: ContextEvent) -> bool:
        return not self.inner.matches(event)

    def to_spec(self) -> Dict[str, Any]:
        return {"op": "not", "inner": self.inner.to_spec()}

    def canonical_spec(self) -> Dict[str, Any]:
        return {"op": "not", "inner": self.inner.canonical_spec()}

    def _render_key(self) -> str:
        return "{inner=" + self.inner.canonical_key() + ",op=s:not}"


def filter_from_spec(spec: Dict[str, Any]) -> EventFilter:
    """Rebuild a filter shipped inside a message payload."""
    try:
        op = spec["op"]
    except (KeyError, TypeError):
        raise FilterError(f"malformed filter spec: {spec!r}") from None
    if op == "all":
        return MatchAll()
    if op == "type":
        return TypeFilter(spec["type"], spec.get("representation"))
    if op == "subject":
        return SubjectFilter(spec["subject"])
    if op == "source":
        return SourceFilter(spec["source"])
    if op == "attr":
        return AttributeFilter(spec["key"], spec["cmp"], spec["constant"])
    if op == "and":
        return AndFilter([filter_from_spec(part) for part in spec["parts"]])
    if op == "or":
        return OrFilter([filter_from_spec(part) for part in spec["parts"]])
    if op == "not":
        return NotFilter(filter_from_spec(spec["inner"]))
    raise FilterError(f"unknown filter op: {op!r}")
