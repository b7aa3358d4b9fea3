"""The shared incremental operator graph: the mediator's dispatch engine.

One :class:`OperatorGraph` per mediator. Subscriptions attach a compiled plan
(:class:`~repro.query.opgraph.specs.OpSpec`); the graph materialises
one node per **canonical key**, so the ten-thousandth "location of anyone
on floor 3" subscription adds a sink entry to an existing node instead of
a ten-thousandth predicate evaluation per publish. Each publish then costs
one top-down incremental evaluation — candidate filter roots found through
a :class:`~repro.events.dispatch_index.DispatchIndex` over *nodes* — plus
pure fan-out of results to sinks.

Invariants the tests lean on:

* **Refcounts are walk counts.** ``attach`` bumps every node once per
  occurrence in the plan's pre-order walk; ``detach`` decrements along the
  identical walk, so counts return to zero exactly when the last plan
  using a node detaches, and the node (plus its dispatch-index root entry
  and window registration) is reclaimed.
* **Delivery order matches a linear scan.** Emissions are buffered
  per publish and stable-sorted by ``sub_id`` before the deliver callback
  runs. Plain filter plans produce at most one emission per (publish,
  subscription); ascending ``sub_id`` is exactly the order a scan over the
  insertion-ordered subscription table delivers in — the differential
  harness and the Hypothesis property assert entry-identical logs against
  that scan (``tests/events/reference_scan.py``).
* **Windows close on the event clock.** Tumbling windows align to the
  absolute sim-time grid (window *k* = ``[k·width, (k+1)·width)``); every
  publish first advances all window nodes to the event's timestamp, so a
  window's aggregate is emitted by the first publish at-or-after its end
  — deterministically, with no timers to race messages. An event exactly
  on a boundary closes the old window *before* it is added, landing in
  the new one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ids import GUID
from repro.core.types import TypeSpec
from repro.events.dispatch_index import DispatchIndex, FilterConstraints
from repro.events.event import ContextEvent
from repro.obs.metrics import MetricsRegistry
from repro.query.opgraph.compile import combine_constraints
from repro.query.opgraph.specs import OpSpec

#: deliver callback: (sub_id, event) -> None
DeliverFn = Callable[[int, ContextEvent], None]


def _subject_token(subject: object) -> str:
    """A total-order token over subjects (mixed types compare as strings)."""
    return f"{type(subject).__name__}:{subject!r}"


class _Node:
    """One materialised operator; shared by every plan with its key."""

    __slots__ = ("key", "node_id", "spec", "refs", "parents", "children",
                 "sinks", "constraints")

    def __init__(self, key: str, node_id: int, spec: OpSpec):
        self.key = key
        self.node_id = node_id
        self.spec = spec
        self.refs = 0
        #: downstream consumers: (node, input port) — registered on child
        #: creation of the *parent*, removed when the parent is reclaimed
        self.parents: List[Tuple["_Node", int]] = []
        self.children: List["_Node"] = []
        #: sub_id -> None; subscriptions whose plan terminates here
        self.sinks: Dict[int, None] = {}

    def process(self, event: ContextEvent, port: int,
                emit: Callable[[ContextEvent], None]) -> None:
        raise NotImplementedError


class _FilterNode(_Node):
    """A leaf; evaluated by the graph against raw publishes, not process()."""

    __slots__ = ()


class _JoinNode(_Node):
    """Join-on-subject: latest event per subject from each side."""

    __slots__ = ("_left", "_right")

    def __init__(self, key: str, node_id: int, spec: OpSpec):
        super().__init__(key, node_id, spec)
        self._left: Dict[object, ContextEvent] = {}
        self._right: Dict[object, ContextEvent] = {}

    def process(self, event, port, emit):
        subject = event.subject
        try:
            hash(subject)
        except TypeError:
            return  # unjoinable subject: no pairing possible
        mine = self._left if port == 0 else self._right
        other = self._right if port == 0 else self._left
        mine[subject] = event
        match = other.get(subject)
        if match is None:
            return
        left = event if port == 0 else match
        right = match if port == 0 else event
        emit(ContextEvent(
            TypeSpec("opgraph-join", "pair", subject),
            {"left": left.value, "right": right.value},
            event.source, event.timestamp,
            {"left_type": left.type_name, "right_type": right.type_name,
             "left_timestamp": left.timestamp,
             "right_timestamp": right.timestamp}))


class _WindowNode(_Node):
    """Tumbling count/avg aggregate on the absolute sim-time grid."""

    __slots__ = ("agg", "width", "value_key", "emit_empty",
                 "_index", "_count", "_sum", "_source")

    def __init__(self, key: str, node_id: int, spec: OpSpec):
        super().__init__(key, node_id, spec)
        params = dict(spec.params)
        self.agg = params["agg"]
        self.width = float(params["width"].split(":", 1)[1])
        self.value_key = params["key"]
        self.emit_empty = params["emit_empty"] == "True"
        self._index: Optional[int] = None  # open window; None before any event
        self._count = 0
        self._sum = 0.0
        self._source: Optional[GUID] = None

    def roll(self, now: float) -> List[ContextEvent]:
        """Close every window whose end is at or before ``now``."""
        if self._index is None:
            return []
        outputs: List[ContextEvent] = []
        current = int(now // self.width)
        while self._index < current:
            closed = self._close(self._index)
            if closed is not None:
                outputs.append(closed)
            self._index += 1
        return outputs

    def _close(self, index: int) -> Optional[ContextEvent]:
        count, total = self._count, self._sum
        self._count, self._sum = 0, 0.0
        if count == 0 and not self.emit_empty:
            return None
        if self.agg == "count":
            value: object = count
        else:
            value = total / count if count else None
        end = (index + 1) * self.width
        return ContextEvent(
            TypeSpec(f"opgraph-window-{self.agg}", "aggregate"),
            value, self._source, end,
            {"window_start": index * self.width, "window_end": end,
             "count": count, "key": self.value_key})

    def process(self, event, port, emit):
        # the graph already rolled to the publish timestamp before any root
        # fired, so a boundary event's old window is closed by now and the
        # event lands in the fresh one
        self._source = event.source
        if self._index is None:
            self._index = int(event.timestamp // self.width)
        if self.agg == "count":
            self._count += 1
            return
        if self.value_key == "value":
            sample = event.value
        else:
            sample = event.attributes.get(self.value_key)
        if isinstance(sample, (int, float)) and not isinstance(sample, bool):
            self._count += 1
            self._sum += sample
        # non-numeric / missing samples contribute nothing to an average


class _SelectNode(_Node):
    """Qualitative min/max-by-attribute selector over latest-per-subject.

    Re-emits the winning *upstream event* whenever the winner changes —
    subject or key value — so a subscriber always holds the current best
    candidate ("closest free printer with no queue"). Subjects whose latest
    event fails the ``where`` predicate, or lacks the key, leave the race.
    Ties on the key value break on a deterministic subject token.
    """

    __slots__ = ("mode", "select_key", "where", "_candidates", "_winner")

    def __init__(self, key: str, node_id: int, spec: OpSpec):
        super().__init__(key, node_id, spec)
        params = dict(spec.params)
        self.mode = params["mode"]
        self.select_key = params["key"]
        self.where = spec.where
        #: subject -> (key value, latest event)
        self._candidates: Dict[object, Tuple[object, ContextEvent]] = {}
        #: (subject token, key value) of the last emitted winner
        self._winner: Optional[Tuple[str, object]] = None

    def process(self, event, port, emit):
        subject = event.subject
        try:
            hash(subject)
        except TypeError:
            return  # cannot track an unhashable contender
        if self.select_key == "value":
            ranked: object = event.value
        else:
            ranked = event.attributes.get(self.select_key)
        eligible = ranked is not None and (
            self.where is None or self.where.matches(event))
        if eligible:
            self._candidates[subject] = (ranked, event)
        else:
            self._candidates.pop(subject, None)
        self._refresh(emit)

    def _refresh(self, emit):
        best: Optional[Tuple[object, str, ContextEvent]] = None
        for subject, (ranked, event) in self._candidates.items():
            token = _subject_token(subject)
            if best is None:
                best = (ranked, token, event)
                continue
            try:
                if ranked == best[0]:
                    better = token < best[1]
                elif self.mode == "min":
                    better = ranked < best[0]
                else:
                    better = ranked > best[0]
            except TypeError:
                continue  # incomparable with the current best: skip
            if better:
                best = (ranked, token, event)
        if best is None:
            self._winner = None  # nobody qualifies; nothing to emit
            return
        signature = (best[1], best[0])
        if signature != self._winner:
            self._winner = signature
            emit(best[2])


_NODE_CLASSES = {
    "filter": _FilterNode,
    "join": _JoinNode,
    "window": _WindowNode,
    "select": _SelectNode,
}


class OperatorGraph:
    """Deduplicated incremental DAG evaluated once per publish."""

    def __init__(self, deliver: DeliverFn, label: str = "-",
                 metrics: Optional[MetricsRegistry] = None):
        self._deliver = deliver
        self._label = label
        metrics = metrics or MetricsRegistry()
        self._nodes_gauge = metrics.gauge(
            "mediator.opgraph.nodes", "live deduplicated operator-graph nodes",
            labels=("range",))
        self._reuse_counter = metrics.counter(
            "mediator.opgraph.reuse_hits",
            "operator materialisations served by an existing node",
            labels=("range",)).series(range=label)
        self._evals_counter = metrics.counter(
            "mediator.opgraph.evals",
            "incremental operator evaluations on the publish path",
            labels=("range",)).series(range=label)
        self._fanout_counter = metrics.counter(
            "mediator.opgraph.fanout",
            "operator-graph result deliveries fanned out to sinks",
            labels=("range",)).series(range=label)
        #: dispatch candidates served from index buckets / scanned from the
        #: residual list; the mediator's retained replay counts into them too
        self.index_hits_series = metrics.counter(
            "mediator.index.hits",
            "dispatch candidates served from exact-match index buckets",
            labels=("range",)).series(range=label)
        self.residual_scans_series = metrics.counter(
            "mediator.index.residual_scans",
            "dispatch candidates scanned from the non-indexable residual list",
            labels=("range",)).series(range=label)
        #: canonical key -> live node (the dedup table)
        self._nodes: Dict[str, _Node] = {}
        #: node_id -> filter leaf, for dispatch-index candidate lookups
        self._roots: Dict[int, _FilterNode] = {}
        #: canonical key -> window node, rolled on every publish
        self._windows: Dict[str, _WindowNode] = {}
        #: sub_id -> attached plan (detach walks the same spec tree)
        self._plans: Dict[int, OpSpec] = {}
        self._root_index = DispatchIndex()
        self._next_node_id = 1
        # plain-int mirrors of the mediator.opgraph.* metrics, for stats()
        self.nodes_created = 0
        self.reuse_hits = 0
        self.evals = 0
        self.fanout = 0

    # -- attach / detach ------------------------------------------------------

    def attach(self, sub_id: int, plan: OpSpec) -> FilterConstraints:
        """Materialise ``plan`` (sharing existing nodes) and add the sink.

        Returns the plan's constraints: the equality facts every raw event
        reaching the plan's output satisfies (a window passes its input's
        through, a join merges both sides'), read off the node.
        """
        if sub_id in self._plans:
            self.detach(sub_id)
        node = self._materialise(plan)
        node.sinks[sub_id] = None
        self._plans[sub_id] = plan
        return node.constraints

    def detach(self, sub_id: int) -> bool:
        """Drop the sink and release one walk's worth of refcounts."""
        plan = self._plans.pop(sub_id, None)
        if plan is None:
            return False
        self._nodes[plan.canonical_key()].sinks.pop(sub_id, None)
        for spec in plan.walk():
            node = self._nodes[spec.canonical_key()]
            node.refs -= 1
            if node.refs == 0:
                self._reclaim(node)
        return True

    def _node_count_changed(self) -> None:
        self._nodes_gauge.set(len(self._nodes), range=self._label)

    def _materialise(self, spec: OpSpec) -> _Node:
        key = spec.canonical_key()
        node = self._nodes.get(key)
        if node is not None:
            node.refs += 1
            self.reuse_hits += 1
            self._reuse_counter.inc()
            # keep refcounts equal to walk counts: bump the whole subtree
            for child_spec in spec.inputs:
                self._materialise(child_spec)
            return node
        children = [self._materialise(child_spec)
                    for child_spec in spec.inputs]
        node = _NODE_CLASSES[spec.op](key, self._next_node_id, spec)
        self._next_node_id += 1
        node.refs = 1
        node.children = children
        self._nodes[key] = node
        for port, child in enumerate(children):
            child.parents.append((node, port))
        # equality facts about every raw event that can reach the node,
        # analysed this once
        if isinstance(node, _FilterNode):
            self._roots[node.node_id] = node
            assert spec.filter is not None
            node.constraints = self._root_index.add(node.node_id, spec.filter)
        else:
            node.constraints = combine_constraints(
                spec.op, [child.constraints for child in children])
            if isinstance(node, _WindowNode):
                self._windows[key] = node
        self.nodes_created += 1
        self._node_count_changed()
        return node

    def _reclaim(self, node: _Node) -> None:
        del self._nodes[node.key]
        self._node_count_changed()
        for child in node.children:
            child.parents = [(parent, port)
                             for parent, port in child.parents
                             if parent is not node]
        if isinstance(node, _FilterNode):
            self._roots.pop(node.node_id, None)
            self._root_index.remove(node.node_id)
        elif isinstance(node, _WindowNode):
            self._windows.pop(node.key, None)

    # -- evaluation -----------------------------------------------------------

    def publish(self, event: ContextEvent) -> int:
        """One incremental evaluation; returns the number of deliveries."""
        batch: List[Tuple[int, ContextEvent]] = []
        now = event.timestamp
        for window in list(self._windows.values()):
            for closed in window.roll(now):
                self._emit(window, closed, batch)
        node_ids, hits, residual = self._root_index.candidates(event)
        self.index_hits_series.inc(hits)
        self.residual_scans_series.inc(residual)
        evals = 0
        for node_id in node_ids:
            root = self._roots.get(node_id)
            if root is None:
                continue
            evals += 1
            if root.spec.filter.matches(event):
                self._emit(root, event, batch)
        self.evals += evals
        self._evals_counter.inc(evals)
        batch.sort(key=lambda entry: entry[0])  # stable: classic sub order
        for sub_id, out in batch:
            self._deliver(sub_id, out)
        count = len(batch)
        self.fanout += count
        self._fanout_counter.inc(count)
        return count

    def _emit(self, node: _Node, event: ContextEvent,
              batch: List[Tuple[int, ContextEvent]]) -> None:
        """Fan one operator output to its sinks and downstream operators."""
        for sub_id in node.sinks:
            batch.append((sub_id, event))
        for parent, port in node.parents:
            self.evals += 1
            self._evals_counter.inc()
            parent.process(event, port,
                           lambda out, parent=parent: self._emit(parent, out,
                                                                 batch))

    # -- introspection --------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def attached(self) -> int:
        return len(self._plans)

    def reuse_ratio(self) -> float:
        """Fraction of materialisation requests served by an existing node."""
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
            "attached": len(self._plans),
            "filter_roots": len(self._roots),
            "indexed_roots": self._root_index.indexed_size,
            "residual_roots": self._root_index.residual_size,
            "window_nodes": len(self._windows),
        }
