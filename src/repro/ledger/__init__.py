"""repro.ledger — the append-only context ledger.

Every mutation of a Context Server's books — registrations, departures,
profile changes, subscription changes, publishes and replays, retained
evictions and query routing decisions — is recorded as a hash-chained
:class:`~repro.ledger.ledger.LedgerEntry`. Recording is not optional: the
range's Registrar, Profile Manager and Event Mediator each append to the
chain they were given, or to a private one of their own. Context becomes a
replayable projection of the entry stream (``context = reachable ∩
live``) instead of opaque in-place state, which unlocks:

* **audit / explain** — :func:`repro.ledger.timetravel.explain_query`
  links a query's binding back to the exact entries that produced it;
* **crash recovery by replay** —
  :class:`~repro.ledger.replay.ReplayProjector` rebuilds registrar,
  profile-manager and mediator-retained state from any prefix;
* **historical queries** — :class:`repro.ledger.timetravel.AsOfView`
  runs the resolver against the projected state at time T, giving the
  paper's Figure-6 **When** section past-tense semantics.

The time-travel views are not re-exported: they import the composition
layer, which the Event Mediator's import of this package must not pull in.
"""

from repro.ledger.ledger import (
    ContextLedger,
    LedgerEntry,
    LedgerError,
    LEDGER_SCHEMA,
    load_ledger_jsonl,
    merge_entries,
    write_ledger_jsonl,
)
from repro.ledger.replay import (
    ProjectedState,
    ReplayProjector,
    live_snapshot,
    projection_snapshot,
    snapshot_digest,
)

__all__ = [
    "ContextLedger",
    "LedgerEntry",
    "LedgerError",
    "LEDGER_SCHEMA",
    "ProjectedState",
    "ReplayProjector",
    "live_snapshot",
    "load_ledger_jsonl",
    "merge_entries",
    "projection_snapshot",
    "snapshot_digest",
    "write_ledger_jsonl",
]
