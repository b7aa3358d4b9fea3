"""The shared operator graph: the Event Mediator's one dispatch engine.

:mod:`repro.query.opgraph.specs` is the canonical plan algebra
(filter / join-on-subject / tumbling window / qualitative select),
:mod:`repro.query.opgraph.compile` turns wire-level query dicts into plans
(refusing malformed ones with :class:`OpSpecError`), and
:mod:`repro.query.opgraph.engine` is the deduplicated incremental DAG the
mediator evaluates once per publish.
"""

from repro.query.opgraph.compile import compile_query
from repro.query.opgraph.engine import OperatorGraph
from repro.query.opgraph.specs import (
    OpSpec,
    OpSpecError,
    filter_op,
    join_op,
    select_op,
    window_op,
)

__all__ = [
    "OpSpec",
    "OpSpecError",
    "OperatorGraph",
    "compile_query",
    "filter_op",
    "join_op",
    "select_op",
    "window_op",
]
