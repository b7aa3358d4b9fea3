"""Time-travel reads: ``as_of(T)`` resolution and query explanation.

This is the When section's past tense. A live query asks "bind me a
provider now (or when Bob enters L10.01)"; an :class:`AsOfView` asks the
same questions of the state the ledger had at any earlier instant —
"which entities were registered at T?", "what would this pattern have
resolved to?" — by projecting the entry prefix up to T and running the
*same* :class:`~repro.composition.resolver.QueryResolver` over the
projected profiles.

:func:`explain_query` is the audit path: given a query id, it walks the
merged entry stream and links the binding back to the exact hash-stable
entry references that produced it — the query's own lifecycle entries
plus, for every bound entity, the ``register`` entry that made it
eligible (the same entry the projected profile was copied from).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional

from repro.composition.resolver import QueryResolver
from repro.composition.templates import TemplateRegistry
from repro.core.types import TypeSpec
from repro.entities.profile import Profile
from repro.ledger.ledger import LedgerEntry
from repro.ledger.replay import ProjectedState


class AsOfView:
    """Read-only historical view of one range at a fixed instant.

    Built by ``ContextServer.as_of(T)`` from the projection of every
    entry with ``sim_time <= T``. Reads answer from the projected books;
    :meth:`resolve` runs a fresh resolver over the profiles that were
    live at T (no templates: spawnable processors are a present-tense
    capability, the historical question is which *registered* providers
    could have served the pattern).
    """

    def __init__(self, state: ProjectedState, registry, time: float):
        self.state = state
        self.registry = registry
        self.time = time
        self._resolver: Optional[QueryResolver] = None

    # -- membership -----------------------------------------------------------

    def registered(self, entity_hex: str) -> bool:
        return entity_hex in self.state.records

    def population(self) -> int:
        return len(self.state.records)

    def record(self, entity_hex: str) -> Optional[Dict[str, Any]]:
        return self.state.records.get(entity_hex)

    # -- profiles -------------------------------------------------------------

    # the projected wire may be a hashed entry's own dict: hand out copies

    def profile(self, entity_hex: str) -> Optional[Dict[str, Any]]:
        stored = self.state.profiles.get(entity_hex)
        return None if stored is None else copy.deepcopy(stored["profile"])

    def profile_by_name(self, name: str) -> Optional[Dict[str, Any]]:
        for stored in self.state.profiles.values():
            if stored["profile"]["name"] == name:
                return copy.deepcopy(stored["profile"])
        return None

    def _live_profiles(self) -> List[Profile]:
        """Profiles of context-providing entities live at this instant.

        Mirrors ``ContextServer._resolver_profiles``: CAAs provide no
        context, so only ``ce`` / ``infrastructure`` records qualify (every
        projected record has its profile: ``register`` fills both views).
        """
        return [Profile.from_wire(self.state.profiles[entity_hex]["profile"])
                for entity_hex, record in self.state.records.items()
                if record["kind"] in ("ce", "infrastructure")]

    def providers_of(self, type_name: str) -> List[str]:
        """Entity hexes that offered ``type_name`` at this instant."""
        return [profile.entity_id.hex for profile in self._live_profiles()
                if profile.provides_type(type_name)]

    # -- retained events ------------------------------------------------------

    def retained_event(self, type_name: str, representation: str,
                       subject: object) -> Optional[Dict[str, Any]]:
        return self.state.retained.get((type_name, representation, subject))

    # -- resolution -----------------------------------------------------------

    def resolve(self, wanted: TypeSpec):
        """Resolve a pattern against the books as they stood at T.

        Returns a :class:`~repro.composition.resolver.ConfigurationPlan`;
        raises :class:`~repro.core.errors.NoProviderError` when no
        then-registered provider could have served it — exactly like the
        live path.
        """
        if self._resolver is None:
            self._resolver = QueryResolver(
                self.registry,
                live_profiles=self._live_profiles,
                templates=TemplateRegistry(),
            )
        return self._resolver.resolve(wanted)


def explain_query(entries: List[LedgerEntry],
                  query_id: str) -> Optional[Dict[str, Any]]:
    """The audit trail of one query, as hash-stable entry references.

    ``entries`` is the range's entry stream (``merge_entries`` order).
    Returns None when the query never touched this ledger; otherwise a
    document with the query's lifecycle steps, its final bindings, and
    for each bound entity the ``register`` entry in force at execution
    time.
    """
    lifecycle: List[LedgerEntry] = []
    for entry in entries:
        if entry.kind == "query" and entry.payload["query_id"] == query_id:
            lifecycle.append(entry)
    if not lifecycle:
        return None

    # one entry per routing decision, one more when a parked or scheduled
    # query resolves: the last step is the outcome
    last = lifecycle[-1]
    status = last.payload["event"]
    bound: List[Dict[str, Any]] = []
    if status == "executed":
        for entity_hex in last.payload["bound"]:
            register_ref = None
            for entry in entries:
                if entry.sim_time > last.sim_time:
                    break
                if (entry.kind == "register"
                        and entry.payload["entity"] == entity_hex):
                    register_ref = entry.ref()
                elif (entry.kind == "depart"
                        and entry.payload["entity"] == entity_hex):
                    register_ref = None
            bound.append({"entity": entity_hex, "register": register_ref})

    return {
        "query_id": query_id,
        "steps": [dict(entry.payload, ref=entry.ref())
                  for entry in lifecycle],
        "status": status,
        "bound": bound,
    }
