"""Compile wire-level query specs into canonical operator plans.

A continuous query travels inside the existing ``subscribe`` payload as a
plain dictionary (no new protocol verb — the query rides next to the
filter spec, exactly like ``one_time`` and ``replay`` ride next to it).
The grammar nests the four operator kinds:

.. code-block:: python

    {"op": "window", "agg": "avg", "width": 30.0, "key": "value",
     "source": {"op": "filter",
                "filter": {"op": "type", "type": "temperature",
                           "representation": None}}}

As a convenience any spec whose ``op`` names a *filter* operator
(``all``/``type``/``subject``/``source``/``attr``/``and``/``or``/``not``)
is auto-wrapped into a ``filter`` leaf, so a bare filter spec is a valid
query. Compilation canonicalises every embedded filter (via
``filter_from_spec`` → ``canonical_key``), which means two queries that
differ only in And/Or construction order compile to spec-identical plans
and share one DAG instance in the engine.

A missing or ill-typed field raises :class:`OpSpecError` naming the spec,
never a bare ``KeyError``/``TypeError``, so a subscribe carrying a bad query
is refused before the mediator stores anything.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.events.dispatch_index import FilterConstraints
from repro.events.filters import filter_from_spec
from repro.query.opgraph.specs import (
    OpSpec,
    OpSpecError,
    filter_op,
    join_op,
    select_op,
    window_op,
)

#: spec ``op`` values that denote an EventFilter rather than a plan node
_FILTER_OPS = frozenset({"all", "type", "subject", "source", "attr",
                         "and", "or", "not"})


def compile_query(spec: Dict[str, Any]) -> OpSpec:
    """Build the canonical plan for a wire-level query spec."""
    try:
        return _compile(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise OpSpecError(f"malformed query spec {spec!r}: {exc!r}") from None


def _compile(spec: Dict[str, Any]) -> OpSpec:
    op = spec["op"]
    if op in _FILTER_OPS:
        return filter_op(filter_from_spec(spec))
    if op == "filter":
        return filter_op(filter_from_spec(spec["filter"]))
    if op == "join":
        return join_op(_compile(spec["left"]), _compile(spec["right"]))
    if op == "window":
        return window_op(
            _compile(spec["source"]),
            agg=spec["agg"],
            width=spec["width"],
            key=_text(spec.get("key", "value")),
            emit_empty=spec.get("emit_empty", False),
        )
    if op == "select":
        where_spec = spec.get("where")
        return select_op(
            _compile(spec["source"]),
            mode=spec["mode"],
            key=_text(spec["key"]),
            where=None if where_spec is None else filter_from_spec(where_spec),
        )
    raise OpSpecError(f"unknown query op: {op!r}")


def _text(value: Any) -> str:
    """An attribute key: nodes look it up per event, so it must be a str."""
    if not isinstance(value, str):
        raise TypeError(f"attribute key must be a string, got {value!r}")
    return value


def _merge(left: FilterConstraints,
           right: FilterConstraints) -> FilterConstraints:
    """Constraints holding for events feeding *either* side of a join."""
    return FilterConstraints(
        type_name=(left.type_name
                   if left.type_name == right.type_name else None),
        has_subject=(left.has_subject and right.has_subject
                     and left.subject == right.subject),
        subject=(left.subject
                 if left.has_subject and right.has_subject
                 and left.subject == right.subject else None),
        source_hex=(left.source_hex
                    if left.source_hex == right.source_hex else None),
    )


def combine_constraints(op: str, inputs: Sequence[FilterConstraints]) -> FilterConstraints:
    """Constraints of a non-leaf operator, from those of its inputs.

    Unary operators (window/select) pass their input's constraints through
    untouched — they consume exactly the events their input produces. A
    join consumes events from both operands, so only constraints the two
    operands agree on survive.
    """
    if op == "join":
        return _merge(inputs[0], inputs[1])
    return inputs[0]
