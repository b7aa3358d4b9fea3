"""The ledger's shared encoder is the stdlib's canonical JSON, byte for byte.

Every entry hash and snapshot digest commits to
``json.dumps(value, sort_keys=True, separators=(",", ":"))``; the ledger
builds that encoder's C kernel once and calls it directly. For drawn
values (nested dicts, lists and tuples, unicode text and keys, big ints,
``-0.0``, extreme floats, NaN and the infinities) the shared encoder's text
equals the stdlib's, also when a failed encode ran just before it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import ledger as ledger_module
from repro.ledger.ledger import LedgerError, entry_body

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, float("nan"),
                     float("inf"), float("-inf")]),
    st.text(),
)

values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=40,
)


def stdlib(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@settings(max_examples=400, deadline=None)
@given(values)
def test_shared_encoder_is_the_stdlib(value):
    assert ledger_module._canonical(value) == stdlib(value)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), values, max_size=4), values)
def test_entry_body_after_a_failed_encode(payload, poison):
    # the failure leaves the containers it was inside open: the next body,
    # built from the same containers, must still encode
    payload["poison"] = [poison, {1, 2}]
    with pytest.raises(LedgerError, match="not JSON"):
        entry_body(7, 2.5, "register", payload)
    payload["poison"][1] = "cut"
    assert entry_body(7, 2.5, "register", payload) == \
        stdlib([7, 2.5, "register", payload])
