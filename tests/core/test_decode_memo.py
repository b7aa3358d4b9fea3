"""Decoded ids and type specs are shared, and sharing changes nothing.

``GUID.from_hex`` and the wire ``TypeSpec`` decoder sit behind the bounded
memo of :mod:`repro.core.memo`: a repeated input returns the same immutable
object. That is safe only if the shared object hashes, orders and compares
as a fresh one would, a bad input is refused on every call and never
stored, and the key keeps apart inputs that Python calls equal but JSON
writes differently, so re-encoding gives the sender's JSON whatever was
decoded first.
"""

import json

import pytest

from repro.core.ids import GUID, GuidFactory
from repro.core.types import TypeSpec, shared_spec, spec_from_wire
from repro.entities.profile import Profile
from repro.events.event import ContextEvent


@pytest.fixture(autouse=True)
def empty_memos():
    GUID.from_hex.cache_clear()
    shared_spec.cache_clear()


def test_a_repeated_hex_text_is_one_guid():
    text = GuidFactory(seed=3).mint().hex
    guid = GUID.from_hex(text)
    assert GUID.from_hex(text) is guid
    assert GUID.from_hex("".join(text)) is guid  # equal text, other object
    info = GUID.from_hex.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_a_shared_guid_hashes_compares_and_orders_as_a_fresh_one():
    minted = GuidFactory(seed=5).mint_many(20)
    decoded = [GUID.from_hex(guid.hex) for guid in minted]
    for fresh, shared in zip(minted, decoded):
        assert shared == fresh and shared is not fresh
        assert hash(shared) == hash(fresh) == hash((fresh.value,))
        assert shared.hex == fresh.hex
    assert sorted(decoded) == sorted(minted)
    assert [guid.value for guid in set(decoded)] == \
        [guid.value for guid in set(minted)]


@pytest.mark.parametrize("text", ["zz", "1F", "0x1f", 5, ["1f"]])
def test_a_bad_text_raises_on_every_call_and_is_never_stored(text):
    for _ in range(3):
        with pytest.raises((TypeError, ValueError)):
            GUID.from_hex(text)
    assert GUID.from_hex.cache_info().currsize == 0


def _wire(subject=None, quality=()):
    return {"type": "location", "representation": "symbolic",
            "subject": subject, "quality": [list(item) for item in quality]}


def test_equal_specs_decode_to_one_shared_spec():
    first = spec_from_wire(_wire("bob", [("accuracy", 2.0)]))
    assert spec_from_wire(_wire("bob", [("accuracy", 2.0)])) is first
    assert first == TypeSpec("location", "symbolic", "bob",
                             (("accuracy", 2.0),))


#: values equal to Python that JSON writes differently
LOOKALIKES = [1, 1.0, True, 0.0, -0.0]


@pytest.mark.parametrize("order", [LOOKALIKES, LOOKALIKES[::-1]],
                         ids=["forward", "reversed"])
@pytest.mark.parametrize("place", ["subject", "quality"])
def test_lookalike_scalars_decode_apart_in_any_order(order, place):
    """``to_wire`` after decode gives the JSON its sender wrote, so a ledger
    entry's bytes cannot depend on what was decoded first."""
    for value in order:
        wire = (_wire(subject=value) if place == "subject"
                else _wire(quality=[("accuracy", value)]))
        profile = Profile(GuidFactory(seed=1).mint(), "badge",
                          outputs=[spec_from_wire(wire)])
        (spec_wire,) = profile.to_wire()["outputs"]
        assert json.dumps(spec_wire) == json.dumps(wire)


def test_a_decoded_event_owns_its_attributes():
    source = GuidFactory(seed=2).mint()
    wire = ContextEvent(TypeSpec("location", "symbolic", "bob"), "L10.01",
                        source, 3.0, {"accuracy": 1}).to_wire()
    first, second = ContextEvent.from_wire(wire), ContextEvent.from_wire(wire)
    assert first.spec is second.spec and first.source is second.source
    assert first.attributes is not second.attributes
    first.attributes["accuracy"] = 99
    assert second.attributes == wire["attributes"] == {"accuracy": 1}
