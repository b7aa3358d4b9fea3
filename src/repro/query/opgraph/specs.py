"""Canonical operator specs for the shared continuous-query DAG.

The Solar baseline (:mod:`repro.baselines.solar`, paper §6) demonstrates the
idea this subsystem promotes into the main system: applications describe
context processing as explicit operator graphs, and the platform
instantiates structurally identical subgraphs **once**, fanning results out
to every consumer. Here the graph language is a small algebra of four
incremental operators over the mediator's published event stream:

``filter``
    A leaf: passes exactly the events its
    :class:`~repro.events.filters.EventFilter` matches. Every DAG is rooted
    in filter leaves — they are the only contact point with the raw stream.
``join``
    Join-on-subject: pairs the latest event per subject from two upstream
    operators and emits a combined event whenever either side updates a
    subject the other side has seen.
``window``
    Tumbling sim-time windows of fixed width aligned to the absolute time
    grid (window *k* covers ``[k*width, (k+1)*width)``); emits a
    ``count``/``avg`` aggregate event at each window close.
``select``
    Qualitative selector (the paper's Figure-6 **Which** clause, CAPA's
    "closest free printer with no queue"): keeps the latest event per
    subject, drops subjects whose latest event fails the ``where``
    predicate, and re-emits the ``min``/``max``-by-attribute winner every
    time it changes.

A spec is a value: equality and hashing are **structural**, computed from a
canonical key that normalises the embedded filters through
:meth:`~repro.events.filters.EventFilter.canonical_key`. Two subscriptions
compiled from spec-identical queries — whatever their construction order —
therefore share every node of their DAGs. Join operand order is *not*
normalised (the output labels its sides), and neither is select mode/key:
those differences change semantics, so they hash apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.errors import SCIError
from repro.events.filters import EventFilter, spec_key

#: aggregate functions the window operator supports
WINDOW_AGGS = ("count", "avg")
#: selector modes
SELECT_MODES = ("min", "max")


class OpSpecError(SCIError):
    """An operator spec is malformed."""


@dataclass(frozen=True)
class OpSpec:
    """One node of a continuous-query plan, canonical by construction.

    ``params`` is a sorted tuple of ``(name, canonical-string)`` pairs —
    already normalised by the constructors below — and ``inputs`` are the
    upstream plans. ``filter``/``where`` carry the executable
    :class:`EventFilter` payloads; they are excluded from equality because
    their canonical keys already appear in ``params``.
    """

    op: str
    params: Tuple[Tuple[str, str], ...] = ()
    inputs: Tuple["OpSpec", ...] = ()
    filter: Optional[EventFilter] = field(default=None, compare=False)
    where: Optional[EventFilter] = field(default=None, compare=False)
    #: the canonical key, built once here: attach and detach look nodes up
    #: by it along every walk of the plan
    _key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        params = ",".join(f"{name}={value}" for name, value in self.params)
        inputs = ";".join(node._key for node in self.inputs)
        object.__setattr__(self, "_key", f"{self.op}({params})[{inputs}]")

    def canonical_key(self) -> str:
        """Structural hash key; equal keys mean interchangeable nodes."""
        return self._key

    def walk(self):
        """Yield this node then every upstream node, depth-first."""
        yield self
        for node in self.inputs:
            yield from node.walk()


def filter_op(event_filter: EventFilter) -> OpSpec:
    """A leaf over the published stream."""
    return OpSpec(
        op="filter",
        params=(("key", event_filter.canonical_key()),),
        filter=event_filter,
    )


def join_op(left: OpSpec, right: OpSpec) -> OpSpec:
    """Join-on-subject of two upstream operators."""
    return OpSpec(op="join", inputs=(left, right))


def window_op(source: OpSpec, agg: str, width: float,
              key: str = "value", emit_empty: bool = False) -> OpSpec:
    """Tumbling windowed aggregate over one upstream operator.

    ``key`` addresses the aggregated quantity exactly like
    :class:`~repro.events.filters.AttributeFilter`: the special key
    ``"value"`` reads ``event.value``, anything else reads
    ``event.attributes[key]``. ``emit_empty`` controls whether windows that
    saw no events still emit a zero-count aggregate.
    """
    if agg not in WINDOW_AGGS:
        raise OpSpecError(f"unknown window aggregate {agg!r}")
    if not width > 0:
        raise OpSpecError(f"window width must be > 0, got {width!r}")
    return OpSpec(
        op="window",
        params=(("agg", agg), ("emit_empty", spec_key(bool(emit_empty))),
                ("key", key), ("width", spec_key(float(width)))),
        inputs=(source,),
    )


def select_op(source: OpSpec, mode: str, key: str,
              where: Optional[EventFilter] = None) -> OpSpec:
    """Qualitative min/max-by-attribute selector over one upstream operator."""
    if mode not in SELECT_MODES:
        raise OpSpecError(f"unknown select mode {mode!r}")
    params = [("key", key), ("mode", mode)]
    if where is not None:
        params.append(("where", where.canonical_key()))
    return OpSpec(
        op="select",
        params=tuple(sorted(params)),
        inputs=(source,),
        where=where,
    )
