"""Every compiled row of the wire table parses as the loop it replaced.

Each row of :data:`repro.net.wire.REQUESTS`, :data:`~repro.net.wire.REPLIES`
and :data:`~repro.net.wire.BODIES` is driven through its compiled
``parse`` and through :func:`tests.net.reference_wire.parse` with: one
valid payload generated from its kinds, each required field removed, each
field given each wrong value of its kind (``test_wire_table.WRONG``),
undeclared extra keys, the refusal form (flag ``False`` with and without
``error``, alone and beside the row's fields) and payloads that are not
objects. Both must return the same fields in the same order, or raise
``WireError`` with the same text.
"""

import pytest

from repro.core.ids import GuidFactory
from repro.entities.advertisement import Advertisement
from repro.entities.profile import Profile
from repro.net.wire import BODIES, REPLIES, REQUESTS, WireError
from tests.integration.test_malformed_payloads import FIX
from tests.integration.test_wire_table import WRONG
from tests.net import reference_wire

_GUIDS = GuidFactory(seed=17)

#: a valid value per kind name
VALID = {
    "str": "x", "int": 7, "bool": True, "dict": {"k": [1]},
    "any": {"k": [1]}, "[str]": ["a", "b"], "[dict]": [{"k": 1}, {}],
    "guid": _GUIDS.mint().hex,
    "lease": 30.0, "int >= 0": 0, "[[int, int]]": [[1, 1], [2, 5]],
    "ContextEvent.from_wire": FIX,
    "filter_from_spec": {"op": "type", "type": "location",
                         "representation": None},
    "Query.from_wire": {"query_id": "bob:1", "owner_id": "bob",
                        "what": "named:john"},
    "Profile.from_wire": Profile(_GUIDS.mint(), "P1").to_wire(),
    "[Advertisement.from_wire]": [
        Advertisement("printing", ["print"]).to_wire()],
}

ROWS = {f"{table}:{verb}": row
        for table, rows in (("request", REQUESTS), ("reply", REPLIES),
                            ("body", BODIES))
        for verb, row in sorted(rows.items())}


def _payloads(row):
    valid = {name: VALID[kind.name] for name, kind, _ in row.fields}
    yield valid
    for name, kind, required in row.fields:
        if required:
            yield {key: value for key, value in valid.items() if key != name}
        for wrong in WRONG.get(kind.name, ()):
            yield {**valid, name: wrong}
    yield {**valid, "undeclared": [1], "also": None}
    if row.flag:
        for refusal in ({row.flag: False}, {row.flag: False, "error": "no"}):
            yield refusal
            yield {**valid, **refusal}
        yield {row.flag: False, "error": 5}
        yield {row.flag: None}
    for not_an_object in ([1], "x", 5, None):
        yield not_an_object


def _outcome(parse, payload):
    try:
        return "fields", list(parse(payload).items())
    except WireError as exc:
        return "error", str(exc)


def test_every_kind_has_a_valid_value():
    assert {kind.name for row in ROWS.values()
            for _, kind, _ in row.fields} == set(VALID)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_compiled_row_parses_as_the_reference_loop(name):
    row = ROWS[name]
    outcomes = set()
    for payload in _payloads(row):
        compiled = _outcome(row.parse, payload)
        assert compiled == _outcome(
            lambda p: reference_wire.parse(row, p), payload), payload
        outcomes.add(compiled[0])
    assert outcomes == {"fields", "error"}
