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

:func:`analyse_opspec` extends the dispatch index's static analysis to
whole plans so the sharded router can place query subscriptions: a plan's
constraints are facts about **every raw event that can feed any of its
leaves** — the intersection across leaves — making shard placement sound
exactly when it is for plain filters.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.events.dispatch_index import FilterConstraints, analyse_filter
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
        op = spec["op"]
    except (KeyError, TypeError):
        raise OpSpecError(f"malformed query spec: {spec!r}") from None
    if op in _FILTER_OPS:
        return filter_op(filter_from_spec(spec))
    if op == "filter":
        return filter_op(filter_from_spec(spec["filter"]))
    if op == "join":
        return join_op(compile_query(spec["left"]),
                       compile_query(spec["right"]))
    if op == "window":
        return window_op(
            compile_query(spec["source"]),
            agg=spec["agg"],
            width=spec["width"],
            key=spec.get("key", "value"),
            emit_empty=spec.get("emit_empty", False),
        )
    if op == "select":
        where_spec = spec.get("where")
        return select_op(
            compile_query(spec["source"]),
            mode=spec["mode"],
            key=spec["key"],
            where=None if where_spec is None else filter_from_spec(where_spec),
        )
    raise OpSpecError(f"unknown query op: {op!r}")


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


def analyse_opspec(plan: OpSpec) -> FilterConstraints:
    """Sound equality constraints on every raw event reaching ``plan``."""
    if plan.op == "filter":
        assert plan.filter is not None
        return analyse_filter(plan.filter)
    return combine_constraints(
        plan.op, [analyse_opspec(source) for source in plan.inputs])
