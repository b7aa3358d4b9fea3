"""Replaying a ledger prefix back into Context Server state.

The determinism contract (Brain_Garden HO2): projecting the same entry
prefix always yields the same state, and that state equals what the live
mutable components hold at the moment the prefix ends. The differential
harness (``tests/ledger``) and the Hypothesis property assert exactly
this, snapshot-for-snapshot.

Authority split — who rebuilds what:

* ``register`` / ``depart`` (the Registrar's entries) rebuild the
  **membership view** — who is in the range, their kind, host and when
  they registered — *and* the **profile view**: a range has one membership
  book, so the profile and advertisements a ``register`` entry froze are
  the projected copy, and ``depart`` clears both. Lease renewals are not
  lifecycle events and are not recorded: a lease that ran out shows as
  ``depart`` with ``reason: lease-expired``, and the moving expiry deadline
  is the live Registrar's business, outside the audited view.
* ``profile-update`` (the one fact the Profile Manager originates) replaces
  the projected wire with a patched copy, never the entry it came from.
* ``subscribe`` / ``unsubscribe`` / ``publish`` / ``replay`` /
  ``retain-evict`` (mediator chains) rebuild subscriptions, per-
  subscription delivery counts and the retained store. A ``publish`` entry
  is one fan-out: the retained entry it stored (``key`` and ``event``) and
  the ``[sub_id, seq]`` pair (as in the ``event``'s ``subs``) of every
  subscription it served, appended when the fan-out completed — so a
  one-time subscription it consumed has its ``unsubscribe`` *before* it,
  at the same sim-time, and a pair naming a subscription the books no longer hold is ignored.
  ``replay`` is the same list for deliveries made outside a publish
  (retained replay to a fresh subscription, ``resync``). The retained view
  keys on ``(type, representation, subject)`` in store order, as the
  mediator's does: an update keeps its key's place and an evicted key that
  comes back goes to the end, on both sides.
* ``query`` entries collect per query id: one per routing decision, plus
  one when a parked or scheduled query resolves.

Crash recovery: :meth:`ReplayProjector.from_records` replays an exported
JSONL artefact (``load_ledger_jsonl``), so a range whose server died can
rebuild its books from the durable ledger alone — the same path lease
expiry (PR 4's failure-detection story) already exercises while the
server is up.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any, Dict, Iterable, List

from repro.ledger.ledger import LedgerEntry, _canonical


class ProjectedState:
    """The rebuilt books: membership, profiles, retained, subscriptions."""

    def __init__(self):
        #: entity hex -> membership record (see snapshot shape below)
        self.records: Dict[str, Dict[str, Any]] = {}
        #: entity hex -> {"profile": wire, "advertisements": [wire, ...]}
        self.profiles: Dict[str, Dict[str, Any]] = {}
        #: (type, representation, subject) -> event wire, in store order
        self.retained: Dict[tuple, Dict[str, Any]] = {}
        #: sub_id -> subscription facts + live delivery count
        self.subscriptions: Dict[int, Dict[str, Any]] = {}
        #: query_id -> lifecycle payloads in ledger order (feeds explain)
        self.queries: Dict[str, List[Dict[str, Any]]] = {}
        self.entries_applied = 0


class ReplayProjector:
    """Folds ledger entries into a :class:`ProjectedState`."""

    def __init__(self):
        self.state = ProjectedState()

    @classmethod
    def from_entries(cls, entries: Iterable[LedgerEntry]) -> "ReplayProjector":
        projector = cls()
        for entry in entries:
            projector.apply(entry.kind, entry.payload)
        return projector

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, Any]]) -> "ReplayProjector":
        """Replay exported JSONL records (``load_ledger_jsonl`` output).

        Records must already be in ``(time, ledger, seq)`` order,
        which is how :func:`~repro.ledger.ledger.write_ledger_jsonl` lays
        them out.
        """
        projector = cls()
        for record in records:
            projector.apply(record["kind"], record["payload"])
        return projector

    def apply(self, kind: str, payload: Dict[str, Any]) -> None:
        # dispatch table deliberately not named *handlers*: these are ledger
        # entry kinds, not wire verbs, and must stay out of PROTOCOL.md
        projector = self._PROJECTORS.get(kind)
        if projector is not None:
            projector(self, payload)
        self.state.entries_applied += 1

    # -- registrar chain ------------------------------------------------------

    def _apply_register(self, payload: Dict[str, Any]) -> None:
        self.state.records[payload["entity"]] = {
            "name": payload["name"],
            "kind": payload["kind"],
            "host": payload["host"],
            "registered_at": payload["registered_at"],
        }
        # by reference: the wire belongs to an already-hashed entry, so
        # profile-update replaces it (copy on write) and reads copy it
        self.state.profiles[payload["entity"]] = {
            "profile": payload["profile"],
            "advertisements": list(payload["advertisements"]),
        }

    def _apply_depart(self, payload: Dict[str, Any]) -> None:
        self.state.records.pop(payload["entity"], None)
        self.state.profiles.pop(payload["entity"], None)

    # -- profile manager ------------------------------------------------------

    def _apply_profile_update(self, payload: Dict[str, Any]) -> None:
        stored = self.state.profiles.get(payload["entity"])
        if stored is not None:
            wire = stored["profile"]
            stored["profile"] = dict(wire, attributes={
                **wire["attributes"], **payload["attributes"]})

    # -- mediator chains ------------------------------------------------------

    def _apply_subscribe(self, payload: Dict[str, Any]) -> None:
        self.state.subscriptions[payload["sub_id"]] = {
            "subscriber": payload["subscriber"],
            "filter": payload["filter"],
            "one_time": payload["one_time"],
            "owner": payload["owner"],
            "delivered": 0,
        }

    def _apply_unsubscribe(self, payload: Dict[str, Any]) -> None:
        self.state.subscriptions.pop(payload["sub_id"], None)

    def _apply_publish(self, payload: Dict[str, Any]) -> None:
        self.state.retained[tuple(payload["key"])] = payload["event"]
        self._apply_replay(payload)

    def _apply_replay(self, payload: Dict[str, Any]) -> None:
        subscriptions = self.state.subscriptions
        for sub_id, _seq in payload["deliveries"]:
            subscription = subscriptions.get(sub_id)
            if subscription is not None:  # consumed one-time: already gone
                subscription["delivered"] += 1

    def _apply_retain_evict(self, payload: Dict[str, Any]) -> None:
        self.state.retained.pop(tuple(payload["key"]), None)

    # -- query chain ----------------------------------------------------------

    def _apply_query(self, payload: Dict[str, Any]) -> None:
        self.state.queries.setdefault(payload["query_id"], []).append(payload)

    _PROJECTORS = {
        "register": _apply_register,
        "depart": _apply_depart,
        "profile-update": _apply_profile_update,
        "subscribe": _apply_subscribe,
        "unsubscribe": _apply_unsubscribe,
        "publish": _apply_publish,
        "replay": _apply_replay,
        "retain-evict": _apply_retain_evict,
        "query": _apply_query,
    }


# -- snapshots: the comparable (and hashable) views ---------------------------


def snapshot_registrar(registrar) -> Dict[str, Dict[str, Any]]:
    """Live membership view in the projection's shape."""
    return {
        record.entity_hex: {
            "name": record.profile.name,
            "kind": record.kind,
            "host": record.host_id,
            "registered_at": record.registered_at,
        }
        for record in registrar.records()
    }


def snapshot_profiles(profile_manager) -> Dict[str, Dict[str, Any]]:
    """Live profile view: wire forms plus advertisements, per entity."""
    out: Dict[str, Dict[str, Any]] = {}
    for profile in profile_manager.all_profiles():
        entity_hex = profile.entity_id.hex
        out[entity_hex] = {
            "profile": profile.to_wire(),
            "advertisements": [
                ad.to_wire()
                for ad in profile_manager.advertisements_of(entity_hex)],
        }
    return out


def snapshot_retained(mediator) -> List[List[Any]]:
    """Retained store in store order."""
    return [[list(key), event.to_wire()]
            for key, event in mediator.all_retained_entries()]


def snapshot_subscriptions(mediator) -> Dict[str, Dict[str, Any]]:
    """Every live subscription in the projection shape."""
    out: Dict[str, Dict[str, Any]] = {}
    for subscription in mediator.subscriptions():
        out[str(subscription.sub_id)] = {
            "subscriber": subscription.subscriber.hex,
            "filter": subscription.filter.to_spec(),
            "one_time": subscription.one_time,
            "owner": (None if subscription.owner is None
                      else str(subscription.owner)),
            # every delivery stamps the next seq: the count is the last seq
            "delivered": subscription.seq,
        }
    return out


def live_snapshot(server) -> Dict[str, Any]:
    """The comparable view of a Context Server's live books."""
    return {
        "records": snapshot_registrar(server.registrar),
        "profiles": snapshot_profiles(server.profiles),
        "retained": snapshot_retained(server.mediator),
        "subscriptions": snapshot_subscriptions(server.mediator),
    }


def projection_snapshot(state: ProjectedState) -> Dict[str, Any]:
    """The projected state in the exact shape of :func:`live_snapshot`."""
    return {
        "records": {entity: dict(record)
                    for entity, record in state.records.items()},
        "profiles": {entity: {"profile": dict(stored["profile"]),
                              "advertisements": list(stored["advertisements"])}
                     for entity, stored in state.profiles.items()},
        "retained": [[list(key), event]
                     for key, event in state.retained.items()],
        "subscriptions": {str(sub_id): dict(facts)
                          for sub_id, facts in state.subscriptions.items()},
    }


def snapshot_digest(snapshot: Dict[str, Any]) -> str:
    """A stable digest of one snapshot — the smoke gate's equality check."""
    return blake2b(_canonical(snapshot).encode("utf-8"),
                   digest_size=16).hexdigest()
