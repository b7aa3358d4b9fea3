"""The shared filter table: the mediator's dispatch engine.

One :class:`OperatorGraph` per mediator. A subscription attaches its
:class:`~repro.events.filters.EventFilter`; the table keeps one node per
**canonical filter key**, so the ten-thousandth "location of anyone on
floor 3" subscription adds a sink to an existing node instead of a
ten-thousandth predicate evaluation per publish.

A new node is filed in the most selective bucket its filter's *equality
constraints* allow — facts every event it matches satisfies — and a
publish evaluates only the nodes of the buckets its own keys name plus
the residual list: O(matching + residual) instead of O(all).

======================  =========================================
constraints extracted   bucket
======================  =========================================
type AND subject        ``("type+subject", type_name, subject)``
type only               ``("type", type_name)``
subject only            ``("subject", subject)``
source only             ``("source", source_hex)``
none (Or/Not/attr/all)  ``None``, the residual list
======================  =========================================

``TypeFilter``, ``SubjectFilter`` (with a hashable subject) and
``SourceFilter`` each constrain their axis, and ``AndFilter`` unions its
parts' constraints; ``Or``, ``Not``, ``AttributeFilter``, ``MatchAll``
and unknown classes constrain nothing. Bucketing is only a pre-filter:
every candidate still runs its full ``matches`` (a representation-narrowed
``TypeFilter`` is filed by its type alone). A node also keeps its type
constraint, which retained replay reads to scan one type's events.

Invariants the tests lean on:

* **A node lives while it has a sink.** ``detach`` of the last
  subscription on a node reclaims it and its bucket entry (and the bucket
  when it empties); re-attaching a ``sub_id`` first detaches it.
* **Delivery order matches a linear scan.** A subscription is a sink of
  exactly one node and ``matches`` is pure, so the order candidates are
  evaluated in does not show: a publish yields at most one delivery per
  subscription, sorted by ``sub_id`` and handed to the deliver callback
  as one batch — exactly the order a scan over the insertion-ordered
  subscription table delivers in. The differential harness and the
  Hypothesis property assert entry-identical logs against that scan
  (``tests/events/reference_scan.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.events.event import ContextEvent
from repro.events.filters import (AndFilter, EventFilter, SourceFilter,
                                  SubjectFilter, TypeFilter)
from repro.obs.metrics import MetricsRegistry

#: deliver callback, once per matched publish: (sorted sub_ids, event) -> None
DeliverFn = Callable[[List[int], ContextEvent], None]


def _hashable(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _filing(event_filter: EventFilter) -> Tuple[Optional[tuple],
                                                Optional[str]]:
    """``(bucket key, type constraint)`` for a node holding
    ``event_filter``; the key is ``None`` for the residual list.

    On each axis the first constraint seen wins: a conjunction whose parts
    disagree matches no event, so its bucket simply never fires.
    """
    found: Dict[str, object] = {}

    def walk(node: EventFilter) -> None:
        if isinstance(node, AndFilter):
            for part in node.parts:
                walk(part)
        elif isinstance(node, TypeFilter):
            found.setdefault("type", node.type_name)
        elif isinstance(node, SubjectFilter):
            if _hashable(node.subject):
                found.setdefault("subject", node.subject)
        elif isinstance(node, SourceFilter):
            found.setdefault("source", node.source_hex)
        # Or / Not / AttributeFilter / MatchAll / anything unknown: a
        # disjunction's branches promise different things and a negation
        # the opposite, so neither yields an equality every match meets.

    walk(event_filter)
    type_name = found.get("type")
    if "type" in found and "subject" in found:
        return ("type+subject", type_name, found["subject"]), type_name
    for axis in ("type", "subject", "source"):
        if axis in found:
            return (axis, found[axis]), type_name
    return None, None


class _Node:
    """One distinct filter; shared by every subscription with its key."""

    __slots__ = ("key", "filter", "sinks", "bucket_key", "type_name")

    def __init__(self, key: str, event_filter: EventFilter):
        self.key = key
        self.filter = event_filter
        #: sub_id -> None; the subscriptions this filter serves
        self.sinks: Dict[int, None] = {}
        #: where it is filed, and the type every event it matches carries
        self.bucket_key, self.type_name = _filing(event_filter)


class OperatorGraph:
    """Deduplicated filter table evaluated once per publish."""

    def __init__(self, deliver: DeliverFn, label: str = "-",
                 metrics: Optional[MetricsRegistry] = None):
        self._deliver = deliver
        self._label = label
        if metrics is None:  # an empty registry is falsy but still given
            metrics = MetricsRegistry()
        self._nodes_gauge = metrics.gauge("mediator.opgraph.nodes")
        self._reuse_counter = metrics.counter(
            "mediator.opgraph.reuse_hits").series(range=label)
        self._evals_counter = metrics.counter(
            "mediator.opgraph.evals").series(range=label)
        self._fanout_counter = metrics.counter(
            "mediator.opgraph.fanout").series(range=label)
        #: dispatch candidates served from buckets / scanned from the
        #: residual list; the mediator's retained replay counts into them too
        self.index_hits_series = metrics.counter(
            "mediator.index.hits").series(range=label)
        self.residual_scans_series = metrics.counter(
            "mediator.index.residual_scans").series(range=label)
        #: canonical key -> live node (the dedup table)
        self._nodes: Dict[str, _Node] = {}
        #: sub_id -> the node it is a sink of
        self._sinks: Dict[int, _Node] = {}
        #: bucket key -> {canonical key -> node}; ``None`` is the residual
        #: list. An emptied bucket is dropped.
        self._buckets: Dict[Optional[tuple], Dict[str, _Node]] = {}
        # plain-int mirrors of the mediator.opgraph.* metrics, for stats()
        self.nodes_created = 0
        self.reuse_hits = 0
        self.evals = 0
        self.fanout = 0

    # -- attach / detach ------------------------------------------------------

    def attach(self, sub_id: int, event_filter: EventFilter) -> Optional[str]:
        """Add ``sub_id`` as a sink of its filter's node (sharing it if it
        exists) and return the node's type constraint."""
        if sub_id in self._sinks:
            self.detach(sub_id)
        key = event_filter.canonical_key()
        node = self._nodes.get(key)
        if node is not None:
            self.reuse_hits += 1
            self._reuse_counter.inc()
        else:
            node = _Node(key, event_filter)
            self._buckets.setdefault(node.bucket_key, {})[key] = node
            self._nodes[key] = node
            self.nodes_created += 1
            self._nodes_gauge.set(len(self._nodes), range=self._label)
        node.sinks[sub_id] = None
        self._sinks[sub_id] = node
        return node.type_name

    def detach(self, sub_id: int) -> bool:
        """Drop the sink; the node goes with its last one."""
        node = self._sinks.pop(sub_id, None)
        if node is None:
            return False
        del node.sinks[sub_id]
        if not node.sinks:
            del self._nodes[node.key]
            bucket = self._buckets[node.bucket_key]
            del bucket[node.key]
            if not bucket:
                del self._buckets[node.bucket_key]
            self._nodes_gauge.set(len(self._nodes), range=self._label)
        return True

    def type_constraint(self, sub_id: int) -> Optional[str]:
        """The type constraint of ``sub_id``'s node (None: unconstrained)."""
        return self._sinks[sub_id].type_name

    # -- evaluation -----------------------------------------------------------

    def publish(self, event: ContextEvent) -> int:
        """Match ``event`` once per candidate node; returns the number of
        deliveries."""
        keys = [("type", event.type_name), ("source", event.source.hex)]
        if _hashable(event.subject):
            keys.append(("type+subject", event.type_name, event.subject))
            keys.append(("subject", event.subject))
        buckets = self._buckets
        candidates: List[_Node] = []
        for key in keys:
            bucket = buckets.get(key)
            if bucket:
                candidates.extend(bucket.values())
        self.index_hits_series.inc(len(candidates))
        residual = buckets.get(None, {})
        self.residual_scans_series.inc(len(residual))
        candidates.extend(residual.values())
        batch: List[int] = []
        for node in candidates:
            if node.filter.matches(event):
                batch.extend(node.sinks)
        evals = len(candidates)
        self.evals += evals
        self._evals_counter.inc(evals)
        count = len(batch)
        if count:
            batch.sort()
            self._deliver(batch, event)
        self.fanout += count
        self._fanout_counter.inc(count)
        return count

    # -- introspection --------------------------------------------------------

    def reuse_ratio(self) -> float:
        """Fraction of attaches served by an existing node."""
        requested = self.nodes_created + self.reuse_hits
        return self.reuse_hits / requested if requested else 0.0

    def stats(self) -> Dict[str, float]:
        residual = len(self._buckets.get(None, ()))
        return {
            "nodes": len(self._nodes),
            "nodes_created": self.nodes_created,
            "reuse_hits": self.reuse_hits,
            "reuse_ratio": self.reuse_ratio(),
            "evals": self.evals,
            "fanout": self.fanout,
            "attached": len(self._sinks),
            "indexed_nodes": len(self._nodes) - residual,
            "residual_nodes": residual,
        }
