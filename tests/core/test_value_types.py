"""The message path's value types: slotted, and GUIDs hashed as before.

Every hop creates, hashes and keeps ``GUID``, ``Message``, ``ContextEvent``
and ``TypeSpec`` objects, so none of them carries an instance ``__dict__``.
A GUID's hash is computed once, and it must stay exactly the hash the
generated dataclass method gave, ``hash((value,))``: a set or dict of GUIDs
iterates in an order fixed by those hashes, and the simulation iterates
some (``SCINet._add_member`` does), so another hash would reorder events.
"""

import dataclasses
import pickle

import pytest

from repro.core.ids import GUID, GUID_BITS, GuidFactory
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.net.message import Message
from repro.net.rpc import PendingRequest

#: ``set(GuidFactory(seed=7).mint_many(12))`` in iteration order, as mint
#: indices, recorded with the generated dataclass hash
SEED7_SET_ORDER = [8, 2, 0, 5, 4, 1, 10, 11, 7, 6, 3, 9]

#: the same for a hand-picked spread of values
SPREAD = (5, 1 << 64, 3, (1 << GUID_BITS) - 2, 99, 1 << 100, 7)
SPREAD_SET_ORDER = [0, 1, 3, 6, 5, 2, 4]


def _spec():
    return TypeSpec("location", "topological", "bob")


def _values():
    guid = GuidFactory(seed=3).mint()
    return {
        "GUID": guid,
        "TypeSpec": _spec(),
        "ContextEvent": ContextEvent(_spec(), "L10.01", guid, 1.0),
        "Message": Message(guid, guid, "ping", msg_id=1),
        "PendingRequest": PendingRequest(1, "ping", lambda reply: None),
    }


@pytest.mark.parametrize("value", [0, 1, 5, 1 << 64, (1 << GUID_BITS) - 1])
def test_guid_hash_is_the_dataclass_hash(value):
    assert hash(GUID(value)) == hash((value,))


def test_guid_set_iterates_in_the_recorded_order():
    guids = GuidFactory(seed=7).mint_many(12)
    assert [guids.index(guid) for guid in set(guids)] == SEED7_SET_ORDER
    spread = [GUID(value) for value in SPREAD]
    assert [spread.index(guid) for guid in set(spread)] == SPREAD_SET_ORDER
    # the same order as a set of the value tuples the old hash was taken of
    assert [guid.value for guid in set(spread)] == \
        [key[0] for key in {(value,) for value in SPREAD}]


def test_guid_equality_and_order_ignore_the_cached_fields():
    parsed = GUID.from_hex(GUID(0xBEEF).hex)
    fresh = GUID(0xBEEF)
    assert parsed == fresh and hash(parsed) == hash(fresh)
    assert parsed.hex == fresh.hex  # one rendered while decoded, one not yet
    assert GUID(1) < GUID(2) and GUID(2) >= GUID(2)
    assert GUID(1) != 1 and GUID(1) != (1,)
    assert repr(fresh) == f"GUID({fresh.hex[:12]}..)"


def test_guid_hex_is_rendered_once():
    guid = GUID(0xABC)
    text = guid.hex
    assert text == format(0xABC, "032x")
    assert guid.hex is text


def test_guid_survives_pickling_with_its_hash():
    guid = GuidFactory(seed=5).mint()
    guid.hex
    copy = pickle.loads(pickle.dumps(guid))
    assert copy == guid and hash(copy) == hash(guid)
    assert copy.hex == guid.hex


@pytest.mark.parametrize("name", ["GUID", "TypeSpec", "ContextEvent",
                                  "Message", "PendingRequest"])
def test_hot_value_types_carry_no_instance_dict(name):
    value = _values()[name]
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(value, "undeclared", 1)


@pytest.mark.parametrize("name", ["GUID", "TypeSpec", "ContextEvent"])
def test_frozen_value_types_stay_frozen(name):
    value = _values()[name]
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def test_message_stays_mutable():
    message = _values()["Message"]
    message.fields = {"ok": True}
    message.trace = {"trace": "t1", "span": "s1"}
    assert message.fields == {"ok": True}
