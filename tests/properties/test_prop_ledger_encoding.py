"""The ledger's shared encoder is the stdlib's canonical JSON, byte for byte.

Every entry hash and snapshot digest commits to
``json.dumps(value, sort_keys=True, separators=(",", ":"))``; the ledger
builds that encoder's C kernel once and calls it directly. For drawn
values (nested dicts, lists and tuples, unicode text and keys, big ints,
``-0.0``, extreme floats, NaN and the infinities) the shared encoder's text
equals the stdlib's, also when a failed encode ran just before it. A
snapshot digest, fed to the hash a batch of a section's items at a time,
is the hash of the stdlib's text at any batch size, and refuses what the
stdlib refuses with ``LedgerError``.
"""

import json
from hashlib import blake2b
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import ledger as ledger_module
from repro.ledger import replay
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


#: a section: a dict keyed by text or by numbers (the encoder writes a
#: number key as text), a list, or a bare value
sections = st.one_of(
    st.dictionaries(st.text(max_size=6), values, max_size=30),
    st.dictionaries(st.one_of(st.integers(-50, 50), st.floats(-9, 9)),
                    values, max_size=30),
    st.lists(values, max_size=30),
    leaves,
)
snapshots = st.one_of(
    st.dictionaries(st.text(max_size=12), sections, max_size=5),
    # keys of two types do not sort: the stdlib and the digest both refuse
    st.dictionaries(st.one_of(st.text(max_size=3), st.integers(0, 3)),
                    sections, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(snapshots, st.sampled_from([1, 2, 3, 7, replay._DIGEST_BATCH]))
def test_streamed_snapshot_digest_is_the_stdlib_texts(snapshot, batch):
    try:
        expected = blake2b(stdlib(snapshot).encode("utf-8"),
                           digest_size=16).hexdigest()
    except (TypeError, ValueError):
        expected = None
    with mock.patch.object(replay, "_DIGEST_BATCH", batch):
        if expected is None:
            with pytest.raises(LedgerError, match="not JSON"):
                replay.snapshot_digest(snapshot)
        else:
            assert replay.snapshot_digest(snapshot) == expected
