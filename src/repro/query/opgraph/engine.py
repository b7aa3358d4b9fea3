"""The shared filter table: the mediator's dispatch engine.

One :class:`OperatorGraph` per mediator. A subscription attaches its
:class:`~repro.events.filters.EventFilter`; the table keeps one node per
**canonical filter key**, so the ten-thousandth "location of anyone on
floor 3" subscription adds a sink to an existing node instead of a
ten-thousandth predicate evaluation per publish. A publish finds its
candidate nodes through a :class:`~repro.events.dispatch_index.DispatchIndex`
over nodes, runs each candidate's ``matches`` once, and fans out to the
matching nodes' sinks.

Invariants the tests lean on:

* **A node lives while it has a sink.** ``detach`` of the last
  subscription on a node reclaims it and its dispatch-index entry;
  re-attaching a ``sub_id`` first detaches it.
* **Delivery order matches a linear scan.** A subscription is a sink of
  exactly one node, so a publish yields at most one delivery per
  subscription; they are sorted by ``sub_id`` and handed to the deliver
  callback as one batch, which is exactly the order a scan over the
  insertion-ordered subscription table delivers in — the differential harness and the
  Hypothesis property assert entry-identical logs against that scan
  (``tests/events/reference_scan.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.events.dispatch_index import DispatchIndex, FilterConstraints
from repro.events.event import ContextEvent
from repro.events.filters import EventFilter
from repro.obs.metrics import MetricsRegistry

#: deliver callback, once per matched publish: (sorted sub_ids, event) -> None
DeliverFn = Callable[[List[int], ContextEvent], None]


class _Node:
    """One distinct filter; shared by every subscription with its key."""

    __slots__ = ("key", "node_id", "filter", "sinks", "constraints")

    def __init__(self, key: str, node_id: int, event_filter: EventFilter,
                 constraints: FilterConstraints):
        self.key = key
        self.node_id = node_id
        self.filter = event_filter
        #: sub_id -> None; the subscriptions this filter serves
        self.sinks: Dict[int, None] = {}
        self.constraints = constraints


class OperatorGraph:
    """Deduplicated filter table evaluated once per publish."""

    def __init__(self, deliver: DeliverFn, label: str = "-",
                 metrics: Optional[MetricsRegistry] = None):
        self._deliver = deliver
        self._label = label
        metrics = metrics or MetricsRegistry()
        self._nodes_gauge = metrics.gauge("mediator.opgraph.nodes")
        self._reuse_counter = metrics.counter(
            "mediator.opgraph.reuse_hits").series(range=label)
        self._evals_counter = metrics.counter(
            "mediator.opgraph.evals").series(range=label)
        self._fanout_counter = metrics.counter(
            "mediator.opgraph.fanout").series(range=label)
        #: dispatch candidates served from index buckets / scanned from the
        #: residual list; the mediator's retained replay counts into them too
        self.index_hits_series = metrics.counter(
            "mediator.index.hits").series(range=label)
        self.residual_scans_series = metrics.counter(
            "mediator.index.residual_scans").series(range=label)
        #: canonical key -> live node (the dedup table)
        self._nodes: Dict[str, _Node] = {}
        #: node id -> node, for dispatch-index candidate lookups
        self._by_id: Dict[int, _Node] = {}
        #: sub_id -> the node it is a sink of
        self._sinks: Dict[int, _Node] = {}
        self._index = DispatchIndex()
        self._next_node_id = 1
        # plain-int mirrors of the mediator.opgraph.* metrics, for stats()
        self.nodes_created = 0
        self.reuse_hits = 0
        self.evals = 0
        self.fanout = 0

    # -- attach / detach ------------------------------------------------------

    def attach(self, sub_id: int, event_filter: EventFilter) -> FilterConstraints:
        """Add ``sub_id`` as a sink of its filter's node (sharing it if it
        exists) and return the filter's constraints: the equality facts
        every event it matches satisfies."""
        if sub_id in self._sinks:
            self.detach(sub_id)
        key = event_filter.canonical_key()
        node = self._nodes.get(key)
        if node is not None:
            self.reuse_hits += 1
            self._reuse_counter.inc()
        else:
            node_id = self._next_node_id
            self._next_node_id += 1
            node = _Node(key, node_id, event_filter,
                         self._index.add(node_id, event_filter))
            self._nodes[key] = node
            self._by_id[node_id] = node
            self.nodes_created += 1
            self._nodes_gauge.set(len(self._nodes), range=self._label)
        node.sinks[sub_id] = None
        self._sinks[sub_id] = node
        return node.constraints

    def detach(self, sub_id: int) -> bool:
        """Drop the sink; the node goes with its last one."""
        node = self._sinks.pop(sub_id, None)
        if node is None:
            return False
        del node.sinks[sub_id]
        if not node.sinks:
            del self._nodes[node.key]
            del self._by_id[node.node_id]
            self._index.remove(node.node_id)
            self._nodes_gauge.set(len(self._nodes), range=self._label)
        return True

    # -- evaluation -----------------------------------------------------------

    def publish(self, event: ContextEvent) -> int:
        """Match ``event`` once per candidate node; returns the number of
        deliveries."""
        node_ids, hits, residual = self._index.candidates(event)
        self.index_hits_series.inc(hits)
        self.residual_scans_series.inc(residual)
        batch: List[int] = []
        for node_id in node_ids:
            node = self._by_id[node_id]
            if node.filter.matches(event):
                batch.extend(node.sinks)
        evals = len(node_ids)
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
        return {
            "nodes": len(self._nodes),
            "nodes_created": self.nodes_created,
            "reuse_hits": self.reuse_hits,
            "reuse_ratio": self.reuse_ratio(),
            "evals": self.evals,
            "fanout": self.fanout,
            "attached": len(self._sinks),
            "indexed_roots": self._index.indexed_size,
            "residual_roots": self._index.residual_size,
        }
