"""The wire table's row check as a loop, kept as the reference for the
compiled rows.

This was ``Verb.parse`` before each row of :mod:`repro.net.wire` became one
generated function: per arrival it walks the row's ``(name, kind,
required)`` triples (or the refusal row's, when the flag is ``False``) and
calls every kind's ``parse``, ``any`` included.
``tests/net/test_compiled_wire.py`` holds every row of ``REQUESTS``,
``REPLIES`` and ``BODIES`` to it: equal ``fields`` or identical
``WireError`` text.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.net.wire import BOOL, STR, Verb, WireError


def refusal_row(verb: Verb) -> tuple:
    """``{flag: bool, "error?": str}`` plus the row's other fields, all
    optional; empty for a row without a flag."""
    if not verb.flag:
        return ()
    return ((verb.flag, BOOL, True), ("error", STR, False)) + tuple(
        (name, kind, False) for name, kind, _ in verb.fields
        if name not in (verb.flag, "error"))


def parse(verb: Verb, payload: Any) -> Dict[str, Any]:
    """Each declared field ``payload`` carries, parsed; raises
    :class:`WireError` on a payload that is not an object, a missing
    required field or a value of the wrong kind."""
    if type(payload) is not dict:
        raise WireError(f"a {type(payload).__name__} is not an object")
    refused = verb.flag in payload and payload[verb.flag] is False
    fields = {}
    for name, kind, required in refusal_row(verb) if refused else verb.fields:
        if name in payload:
            try:
                fields[name] = kind.parse(payload[name])
            except WireError as exc:
                raise WireError(f"{name}: {exc}") from None
        elif required:
            raise WireError(f"missing field {name!r}")
    return fields
