"""The streamed snapshot digest: the stdlib text's hash, in bounded memory.

``snapshot_digest`` feeds a snapshot's canonical text to ``blake2b`` a
piece at a time (the top level's members, then a batch of each section's
items) instead of building the whole text. The hash must not notice: for
live and projected snapshots of a seeded deployment, at any batch size,
and for edge values, it equals ``blake2b`` of ``json.dumps(sort_keys=True,
separators=(",", ":"))``. A value without a JSON form raises
``LedgerError``. And the memory it holds while hashing stays below the
size of the text it never builds.
"""

import json
import tracemalloc
from hashlib import blake2b

import pytest

from repro.core.api import SCI, SCIConfig
from repro.core.ids import GuidFactory
from repro.entities.profile import EntityClass, Profile
from repro.ledger import replay
from repro.ledger.ledger import LedgerError
from repro.ledger.replay import (live_snapshot, projection_snapshot,
                                 snapshot_digest)


def stdlib_digest(snapshot):
    text = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def snapshots():
    sci = SCI(config=SCIConfig(seed=3))
    server = sci.create_range("level10", places=["L10"], hosts=["lab-pc"])
    sci.add_door_sensors("level10")
    sci.add_printers("level10", {"P1": "L10.03", "P2": "L10.01"})
    sci.add_person("bob", room="corridor")
    app = sci.create_application("app", host="lab-pc")
    sci.run(10)
    app.submit_query(sci.query("app").subscribe(
        "location", "topological", subject="bob").build())
    sci.walk("bob", "L10.01")
    sci.run(20)
    return {"live": live_snapshot(server),
            "projected": projection_snapshot(server.ledger_projection())}


@pytest.mark.parametrize("batch", [1, 2, 3, replay._DIGEST_BATCH])
@pytest.mark.parametrize("side", ["live", "projected"])
def test_a_deployment_snapshot_digests_as_the_stdlib_text(
        snapshots, monkeypatch, side, batch):
    snapshot = snapshots[side]
    assert all(snapshot.values()), "every section holds something"
    monkeypatch.setattr(replay, "_DIGEST_BATCH", batch)
    assert snapshot_digest(snapshot) == stdlib_digest(snapshot)


def test_live_and_projected_agree(snapshots):
    assert snapshot_digest(snapshots["live"]) == \
        snapshot_digest(snapshots["projected"])


EDGES = {
    "empty": {},
    "empty sections": {"records": {}, "profiles": {}, "retained": [],
                       "subscriptions": {}},
    "non-ascii keys": {"zé": {"☃": 1, "\U0001f600": [2]},
                       "à": ["ÿ"]},
    "signed zero and extremes": {"a": [-0.0, 0.0, 1e300, -1e300, 5e-324],
                                 "b": {"x": -0.0, "y": 1e300}},
    "int and float keys": {"a": {2: "two", 1.5: "one and a half", 10: 0},
                           "b": {True: 2, False: 1}, "c": {None: 1}},
    "scalar sections": {"b": 1, "a": None, "c": "text", "d": [1, {}]},
    "large sections": {
        "records": {f"{n:04x}": {"n": n, "v": -0.0} for n in range(150)},
        "retained": [[["t", "r", n], {"v": n * 0.5}] for n in range(130)],
        "subscriptions": {str(n): {"one_time": n % 2 == 0}
                          for n in range(65)},
        "scalar": 7},
    "nested past the sections": {"a": {str(n): {"deep": {"er": [n, {}]}}
                                       for n in range(70)}},
}


@pytest.mark.parametrize("snapshot", EDGES.values(), ids=EDGES.keys())
def test_edge_values_digest_as_the_stdlib_text(snapshot):
    assert snapshot_digest(snapshot) == stdlib_digest(snapshot)


def test_a_snapshot_that_is_no_dict_digests_whole():
    for value in ([{"a": n} for n in range(100)], "text", 3, None):
        assert snapshot_digest(value) == stdlib_digest(value)


REFUSED = {
    "tuple key in a section": {"a": {(1, 2): "x"}},
    "tuple key at the top": {(1,): {}},
    "mixed keys in a section": {"a": {**{n: n for n in range(70)}, "x": 1}},
    "mixed keys at the top": {"a": {}, 1: {}},
    "set leaf": {"a": [{1, 2}]},
    "object leaf in a batched section": {
        "a": {str(n): (object() if n == 99 else n) for n in range(100)}},
}


@pytest.mark.parametrize("snapshot", REFUSED.values(), ids=REFUSED.keys())
def test_a_value_without_a_json_form_raises_ledger_error(snapshot):
    with pytest.raises((TypeError, ValueError)):
        stdlib_digest(snapshot)
    with pytest.raises(LedgerError, match="not JSON"):
        snapshot_digest(snapshot)
    # the failed encode left nothing behind
    assert snapshot_digest({"a": [1]}) == stdlib_digest({"a": [1]})


def test_a_cycle_raises_ledger_error():
    snapshot = {"a": [n for n in range(100)]}
    snapshot["a"].append(snapshot)
    with pytest.raises(LedgerError, match="Circular"):
        snapshot_digest(snapshot)


def _recording(monkeypatch):
    """The values the digest hands the encoder, in order: a batch's length
    for a dict or list, the value itself otherwise."""
    encoded, canonical = [], replay._canonical

    def record(value):
        encoded.append(len(value) if type(value) in (dict, list) else value)
        return canonical(value)

    monkeypatch.setattr(replay, "_canonical", record)
    return encoded


def test_the_text_is_fed_a_batch_at_a_time(monkeypatch):
    encoded = _recording(monkeypatch)
    snapshot = {"a": {f"{n:03d}": {"v": [n]} for n in range(150)},
                "b": [[n] for n in range(130)], "c": 7}
    assert snapshot_digest(snapshot) == stdlib_digest(snapshot)
    # each member's key (a one-member dict), then its section: 150 and 130
    # items in batches of 64, a bare value whole
    assert encoded == [1, 64, 64, 22, 1, 64, 64, 2, 1, 7]


SMALL = {
    "64 bare sections": ({f"s{n:02d}": n for n in range(64)}, 1),
    "65 bare sections": ({f"s{n:02d}": n for n in range(65)}, 130),
    "four sections of 16": ({name: {str(n): {"x": n, "y": [n]}
                                    for n in range(16)}
                             for name in "abcd"}, 1),
}


@pytest.mark.parametrize("snapshot,calls", SMALL.values(), ids=SMALL.keys())
def test_a_snapshot_of_one_batch_is_encoded_whole(monkeypatch, snapshot,
                                                  calls):
    """Items are counted one level under the top (a bare section is one):
    up to a batch in all is one encode, past it the top is opened."""
    encoded = _recording(monkeypatch)
    assert snapshot_digest(snapshot) == stdlib_digest(snapshot)
    assert len(encoded) == calls


def _population(count):
    """A snapshot of ``count`` registered profiles, in live_snapshot's
    shape."""
    guids = GuidFactory(seed=5)
    records, profiles = {}, {}
    for n in range(count):
        profile = Profile(guids.mint(), f"sensor-{n}", EntityClass.DEVICE,
                          attributes={"room": f"L10.{n % 40:02d}",
                                      "floor": 10, "battery": n / count})
        records[profile.entity_id.hex] = {
            "name": profile.name, "kind": "ce", "host": f"h{n % 16}",
            "registered_at": n * 0.25}
        profiles[profile.entity_id.hex] = {"profile": profile.to_wire(),
                                           "advertisements": []}
    return {"records": records, "profiles": profiles, "retained": [],
            "subscriptions": {}}


def test_digesting_a_large_snapshot_holds_less_than_its_text():
    snapshot = _population(1_000)
    size = len(json.dumps(snapshot, sort_keys=True, separators=(",", ":")))
    expected = stdlib_digest(snapshot)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        digest = snapshot_digest(snapshot)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert digest == expected
    assert peak < size, f"peaked at {peak} bytes for a {size}-byte text"
