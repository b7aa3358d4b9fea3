"""Content-keyed dispatch index for the Event Mediator's hot path.

A naive mediator evaluates every subscription filter against every
published event — O(subscriptions) per publish, the scaling wall that
content-based pub/sub systems avoid with predicate indexing (compare the
content-keyed lookup structures in P2P context lookup services). This module
does the middleware equivalent: it statically analyses a filter tree into
*equality constraints* that are sound over-approximations of the filter —
every event the filter can match is guaranteed to satisfy the constraints —
and files the subscription in the most selective dict bucket those
constraints allow:

======================  =========================================
constraints extracted   bucket
======================  =========================================
type AND subject        ``(type_name, subject)``
type only               ``(type_name,)``
subject only            ``(subject,)``
source only             ``(source_hex,)``
none (Or/Not/attr/all)  residual scan list
======================  =========================================

Dispatch then looks up the event's own ``(type, subject)``, ``type``,
``subject`` and ``source`` keys plus the residual list — O(matching +
residual) instead of O(all). Because bucketing is only a pre-filter, the
mediator still runs ``filter.matches(event)`` on every candidate, so exotic
filters (representation-narrowed :class:`TypeFilter`, attribute guards
inside an And) keep their exact semantics.

Analysis rules (documented in DESIGN.md):

* :class:`~repro.events.filters.TypeFilter` yields a ``type`` constraint
  (its representation narrowing is re-checked at match time);
* :class:`~repro.events.filters.SubjectFilter` yields a ``subject``
  constraint when the subject is hashable;
* :class:`~repro.events.filters.SourceFilter` yields a ``source`` constraint;
* :class:`~repro.events.filters.AndFilter` unions its parts' constraints
  (a conjunction matches only events satisfying every part, so any part's
  constraint is sound for the whole);
* everything else — ``Or``, ``Not``, ``AttributeFilter``, ``MatchAll``,
  unknown filter classes — yields no constraints and falls to the residual
  list.

Entries are keyed by a monotonically increasing integer id (a
filter-table node id). Each id lives in exactly one bucket, so concatenating
bucket hits and sorting by id reproduces the exact iteration order of the naive
linear scan over an insertion-ordered dict — which is what lets the
property suite assert byte-identical delivery order.

The index keeps no memo of its analyses: the filter table deduplicates
spec-identical filters on their canonical key *before* filing a node here,
so each distinct filter shape reaches :meth:`DispatchIndex.add` once per
node lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.events.event import ContextEvent
from repro.events.filters import (
    AndFilter,
    EventFilter,
    SourceFilter,
    SubjectFilter,
    TypeFilter,
)

#: sentinel for "no constraint extracted on this axis"
_UNSET = object()


def _hashable(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class FilterConstraints:
    """Equality facts every event matching a filter must satisfy.

    ``type_name``/``source_hex`` are ``None`` when unconstrained.
    ``subject`` uses a presence flag because ``None`` is a legal subject.
    """

    type_name: Optional[str] = None
    has_subject: bool = False
    subject: object = None
    source_hex: Optional[str] = None

    @property
    def indexable(self) -> bool:
        return (self.type_name is not None or self.has_subject
                or self.source_hex is not None)


def analyse_filter(event_filter: EventFilter) -> FilterConstraints:
    """Extract sound equality constraints from a filter tree.

    Conjunctions with internally conflicting constraints (two different
    ``TypeFilter``\\ s ANDed together) match no event at all, so keeping the
    first constraint seen remains sound — the bucket simply never fires.
    """
    type_name: object = _UNSET
    subject: object = _UNSET
    source_hex: object = _UNSET

    def walk(node: EventFilter) -> None:
        nonlocal type_name, subject, source_hex
        if isinstance(node, AndFilter):
            for part in node.parts:
                walk(part)
        elif isinstance(node, TypeFilter):
            if type_name is _UNSET:
                type_name = node.type_name
        elif isinstance(node, SubjectFilter):
            if subject is _UNSET and _hashable(node.subject):
                subject = node.subject
        elif isinstance(node, SourceFilter):
            if source_hex is _UNSET:
                source_hex = node.source_hex
        # Or / Not / AttributeFilter / MatchAll / anything unknown: no
        # constraint — a disjunction's branches each promise different
        # things and a negation promises the opposite, so neither yields
        # an equality that is sound for every matching event.

    walk(event_filter)
    return FilterConstraints(
        type_name=None if type_name is _UNSET else type_name,
        has_subject=subject is not _UNSET,
        subject=None if subject is _UNSET else subject,
        source_hex=None if source_hex is _UNSET else source_hex,
    )


class DispatchIndex:
    """Bucketed filter index with incremental add/remove.

    Used by each mediator's filter table over its deduplicated filter
    nodes.
    ``candidates(event)`` returns ids in ascending order, which — ids being
    minted by monotonically increasing counters — is exactly the insertion
    order a naive scan over the mediator's dict would visit.
    """

    __slots__ = ("_by_type_subject", "_by_type", "_by_subject", "_by_source",
                 "_residual", "_bucket_of")

    def __init__(self):
        self._by_type_subject: Dict[Tuple[str, object], Dict[int, None]] = {}
        self._by_type: Dict[str, Dict[int, None]] = {}
        self._by_subject: Dict[object, Dict[int, None]] = {}
        self._by_source: Dict[str, Dict[int, None]] = {}
        self._residual: Dict[int, None] = {}
        #: id -> (bucket dict, key) for O(1) removal; key is None for residual
        self._bucket_of: Dict[int, Tuple[Dict, object]] = {}

    def __len__(self) -> int:
        return len(self._bucket_of)

    @property
    def residual_size(self) -> int:
        """How many entries every single dispatch must still scan."""
        return len(self._residual)

    @property
    def indexed_size(self) -> int:
        return len(self._bucket_of) - len(self._residual)

    def add(self, entry_id: int, event_filter: EventFilter) -> FilterConstraints:
        """File ``entry_id`` in the most selective bucket its filter allows."""
        if entry_id in self._bucket_of:
            self.remove(entry_id)
        constraints = analyse_filter(event_filter)
        if constraints.type_name is not None and constraints.has_subject:
            store = self._by_type_subject
            key: object = (constraints.type_name, constraints.subject)
        elif constraints.type_name is not None:
            store, key = self._by_type, constraints.type_name
        elif constraints.has_subject:
            store, key = self._by_subject, constraints.subject
        elif constraints.source_hex is not None:
            store, key = self._by_source, constraints.source_hex
        else:
            self._residual[entry_id] = None
            self._bucket_of[entry_id] = (self._residual, None)
            return constraints
        bucket = store.setdefault(key, {})
        bucket[entry_id] = None
        self._bucket_of[entry_id] = (store, key)
        return constraints

    def remove(self, entry_id: int) -> bool:
        located = self._bucket_of.pop(entry_id, None)
        if located is None:
            return False
        store, key = located
        if key is None:
            store.pop(entry_id, None)
            return True
        bucket = store.get(key)
        if bucket is not None:
            bucket.pop(entry_id, None)
            if not bucket:
                del store[key]  # keep empty buckets from accumulating
        return True

    def candidates(self, event: ContextEvent) -> Tuple[List[int], int, int]:
        """Ids whose filters *may* match ``event``, in naive-scan order.

        Returns ``(ids, indexed_hits, residual_scanned)`` so the caller can
        feed the ``mediator.index.*`` counters without recomputing.
        """
        ids: List[int] = []
        subject_ok = _hashable(event.subject)
        if subject_ok:
            bucket = self._by_type_subject.get((event.type_name, event.subject))
            if bucket:
                ids.extend(bucket)
        bucket = self._by_type.get(event.type_name)
        if bucket:
            ids.extend(bucket)
        if subject_ok:
            bucket = self._by_subject.get(event.subject)
            if bucket:
                ids.extend(bucket)
        bucket = self._by_source.get(event.source.hex)
        if bucket:
            ids.extend(bucket)
        indexed_hits = len(ids)
        residual = len(self._residual)
        if residual:
            ids.extend(self._residual)
        ids.sort()
        return ids, indexed_hits, residual
