"""One SCINET overlay node: Pastry-style prefix routing over GUIDs.

Each range's Context Server attaches one overlay node (usually on its own
host). A node keeps a routing table (rows by shared-prefix length, columns
by next hex digit) and a leaf set of numerically closest nodes. ``route``
forwards a payload toward the node whose GUID is numerically closest to a
key; expected hop count is O(log16 N), which the Figure-1 benchmark
verifies.

Nodes also answer DHT verbs (the range directory's storage), apply
broadcast announcements (directory replication) and count per-node routed
load for the hotspot analysis. An ``o-*`` envelope is checked against its
:data:`repro.net.wire.VERBS` row where it arrives (its GUIDs reach the node
parsed), and the body of an inner kind the node applies itself against
:data:`repro.net.wire.BODIES` before anything is routed or applied; a bad
one is dropped and counted, since none of these verbs has a reply.

Dissemination is a deterministic distribution tree: each forwarder owns a
clockwise ring arc and delegates disjoint sub-arcs to the known nodes
inside it, so a full-overlay announce costs exactly N-1 messages (see
DESIGN.md, "Overlay fast paths"). A per-node dedup set still drops any
broadcast id seen before, so a duplicate arrival is counted, never applied
twice.
"""

from __future__ import annotations

import bisect
import logging
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.ids import GUID, GUID_DIGITS
from repro.net.message import Message
from repro.net.transport import Network, Process
from repro.net.wire import BODIES, WireError

logger = logging.getLogger(__name__)

#: leaf-set half width (nodes kept on each numeric side)
LEAF_HALF = 4


_RING = 1 << 128


def _ring_offset(origin: GUID, target: GUID) -> int:
    """Clockwise distance from ``origin`` to ``target`` on the GUID ring."""
    return (target.value - origin.value) % _RING


class RoutingTable:
    """Pastry routing state: prefix table + exact ring-order leaf sets.

    The prefix table gives O(log16 N) hops; the leaf sets (``LEAF_HALF``
    immediate ring neighbours on each side) give the final-hop correctness
    guarantee: a key that falls within a node's leaf span is handed straight
    to the numerically closest member. Leaf sets are maintained exactly by
    the management plane (:meth:`repro.overlay.scinet.SCINet.join`), which
    is what a converged Pastry maintenance protocol produces.

    The derived views — :meth:`known_nodes`, :meth:`nodes_clockwise`, the
    membership set behind ``in``/``size`` and the leaf-span extents — are
    memoised and invalidated on mutation, so the per-hop fallback scan,
    broadcast fan-out and span checks never rebuild a sorted set per call.
    ``cache_hits``/``cache_builds`` expose the memo's effectiveness to the
    perf smoke gate.
    """

    def __init__(self, owner: GUID):
        self.owner = owner
        # rows[row][digit] -> node GUID; row = shared prefix length
        self._rows: Dict[int, Dict[int, GUID]] = {}
        self._right: List[GUID] = []   # successors, nearest first
        self._left: List[GUID] = []    # predecessors, nearest first
        # precomputed leaf-span extents: clockwise offset to the furthest
        # right leaf / counterclockwise offset to the furthest left leaf
        self._right_span = 0
        self._left_span = 0
        # memoised views (None = stale, rebuilt on next read)
        self._known_sorted: Optional[List[GUID]] = None
        self._known_set: Optional[Set[GUID]] = None
        self._clockwise: Optional[List[GUID]] = None
        #: cache effectiveness counters (read by scripts/smoke_perf.py)
        self.cache_hits = 0
        self.cache_builds = 0

    # -- maintenance ----------------------------------------------------------

    def add(self, node: GUID) -> None:
        """Add a prefix-table entry (leaf sets are set via set_leaves)."""
        if node == self.owner:
            return
        row = self.owner.shared_prefix_len(node)
        digit = node.digit(row)
        slot = self._rows.setdefault(row, {})
        incumbent = slot.get(digit)
        if incumbent is None or node.distance(self.owner) < incumbent.distance(self.owner):
            slot[digit] = node
            self._invalidate()

    def remove(self, node: GUID) -> None:
        if node == self.owner:
            return
        changed = False
        row = self.owner.shared_prefix_len(node)
        slot = self._rows.get(row, {})
        digit = node.digit(row)
        if slot.get(digit) == node:
            del slot[digit]
            changed = True
        leaves_changed = False
        if node in self._right:
            self._right.remove(node)
            leaves_changed = True
        if node in self._left:
            self._left.remove(node)
            leaves_changed = True
        if leaves_changed:
            self._leaves_changed()
        elif changed:
            self._invalidate()

    def set_leaves(self, members: List[GUID]) -> None:
        """Recompute exact leaf sets from the full membership."""
        others = [node for node in members if node != self.owner]
        by_clockwise = sorted(others, key=lambda node: _ring_offset(self.owner, node))
        self._right = by_clockwise[:LEAF_HALF]
        self._left = list(reversed(by_clockwise))[:LEAF_HALF]
        self._leaves_changed()

    def set_leaf_lists(self, right: List[GUID], left: List[GUID]) -> None:
        """Install exact leaf lists (nearest first) computed by the
        management plane's sorted ring — the incremental counterpart of
        :meth:`set_leaves`."""
        self._right = list(right)
        self._left = list(left)
        self._leaves_changed()

    def _leaves_changed(self) -> None:
        self._right_span = (_ring_offset(self.owner, self._right[-1])
                            if self._right else 0)
        self._left_span = (_ring_offset(self._left[-1], self.owner)
                           if self._left else 0)
        self._invalidate()

    def _invalidate(self) -> None:
        self._known_sorted = None
        self._known_set = None
        self._clockwise = None

    def _rebuild(self) -> None:
        nodes: Set[GUID] = set(self._right)
        nodes.update(self._left)
        for slot in self._rows.values():
            nodes.update(slot.values())
        self._known_set = nodes
        self._known_sorted = sorted(nodes)
        # the owner is never in the table, so bisect yields the rotation
        # point that turns value order into clockwise ring order
        pivot = bisect.bisect_right(self._known_sorted, self.owner)
        self._clockwise = self._known_sorted[pivot:] + self._known_sorted[:pivot]
        self.cache_builds += 1

    # -- lookup ----------------------------------------------------------------

    def next_hop(self, key: GUID) -> Optional[GUID]:
        """The node to forward ``key`` toward; None means deliver here.

        Rule order (Pastry): leaf-span shortcut, then prefix hop, then the
        rare-case fallback requiring strict (prefix, -distance) progress —
        which makes routing loop-free by construction.
        """
        if key == self.owner:
            return None
        covered, closest_leaf = self._leaf_span_lookup(key)
        if covered:
            return None if closest_leaf == self.owner else closest_leaf
        row = self.owner.shared_prefix_len(key)
        entry = self._rows.get(row, {}).get(key.digit(row))
        if entry is not None:
            return entry  # strictly longer shared prefix with the key
        # Fallback: progress in (shared prefix, then numeric distance).
        my_distance = key.distance(self.owner)
        best: Optional[GUID] = None
        best_rank = (row, -my_distance)
        for node in self.known_nodes():
            rank = (node.shared_prefix_len(key), -key.distance(node))
            if rank > best_rank:
                best = node
                best_rank = rank
        return best

    def _leaf_span_lookup(self, key: GUID):
        """(covered?, closest member) for keys inside the leaf span."""
        key_clockwise = _ring_offset(self.owner, key)
        covered = (key_clockwise <= self._right_span
                   or (_RING - key_clockwise) <= self._left_span)
        if not covered:
            return False, None
        closest = self.owner
        closest_rank = (key.distance(self.owner), self.owner.value)
        for node in self._right:
            rank = (key.distance(node), node.value)
            if rank < closest_rank:
                closest = node
                closest_rank = rank
        for node in self._left:
            rank = (key.distance(node), node.value)
            if rank < closest_rank:
                closest = node
                closest_rank = rank
        return True, closest

    def known_nodes(self) -> List[GUID]:
        """Every node in the table, sorted by value (cached; treat as
        read-only — mutating the returned list corrupts the memo)."""
        if self._known_sorted is None:
            self._rebuild()
        else:
            self.cache_hits += 1
        return self._known_sorted

    def nodes_clockwise(self) -> List[GUID]:
        """Known nodes ordered by clockwise ring offset from the owner
        (cached; treat as read-only)."""
        if self._clockwise is None:
            self._rebuild()
        else:
            self.cache_hits += 1
        return self._clockwise

    def leaves(self) -> List[GUID]:
        return list(self._right) + list(self._left)

    def size(self) -> int:
        if self._known_set is None:
            self._rebuild()
        else:
            self.cache_hits += 1
        return len(self._known_set)

    def __contains__(self, node: GUID) -> bool:
        if self._known_set is None:
            self._rebuild()
        else:
            self.cache_hits += 1
        return node in self._known_set


class OverlayNode(Process):
    """One member of the SCINET."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str = "", owner_cs_hex: Optional[str] = None):
        super().__init__(guid, host_id, network, name=f"scinet:{range_name or guid}")
        self.range_name = range_name
        self.owner_cs_hex = owner_cs_hex
        self.table = RoutingTable(guid)
        #: replicated range directory: place name -> CS GUID hex
        self.directory: Dict[str, str] = {}
        #: DHT storage this node is responsible for
        self.store: Dict[str, Any] = {}
        self._seen_broadcasts: Set[str] = set()
        self._bcast_seq = 0
        self.routed = 0          # messages this node forwarded or delivered
        self.delivered = 0
        #: callbacks on delivered application payloads: (kind, body, hops)
        self.on_delivery: List[Callable[[str, Dict[str, Any], int], None]] = []
        # hot-path metric handles, resolved once at attach time instead of
        # by name + label on every routed/delivered message
        metrics = network.obs.metrics
        self._node_label = range_name or guid.hex[:8]
        self._load_counter = metrics.counter("overlay.node.load")
        #: this node's load series, bound on its first route step: a node
        #: that never routes has none, so Figure 1's mean load covers the
        #: nodes that carried traffic (as the hierarchy's does)
        self._load = None
        self._delivered_counter = metrics.counter(
            "overlay.route.delivered").series()
        self._hops_histogram = metrics.histogram("overlay.route.hops").series()
        lookups = metrics.counter("overlay.directory.lookups")
        #: found? -> its lookup series
        self._lookups = {True: lookups.series(hit="true"),
                         False: lookups.series(hit="false")}
        self._bcast_sent = metrics.counter(
            "overlay.bcast.sent").series(mode="tree")
        self._bcast_dup = metrics.counter(
            "overlay.bcast.dup_suppressed").series()
        self._fd_heartbeats = metrics.counter("overlay.fd.heartbeats").series()
        self._fd_suspicions = metrics.counter("overlay.fd.suspicions").series()
        # failure-detector state (inert until enable_failure_detector)
        self.fd_interval = 0.0
        self.fd_timeout = 0.0
        #: callback fired as (suspect_guid, reporter_guid) on missed heartbeats
        self.on_suspect: Optional[Callable[[GUID, GUID], None]] = None
        self._fd_timer = None
        self._fd_last: Dict[GUID, float] = {}

    # -- public API ----------------------------------------------------------------

    def route(self, key: GUID, kind: str, body: Optional[Dict[str, Any]] = None,
              origin: Optional[GUID] = None) -> None:
        """Route ``body`` toward the node numerically closest to ``key``."""
        # An explicit route() call is a traced operation in its own right:
        # open a root span here (or a child, if the caller is mid-trace) so
        # every forwarding hop hangs off it via the message context.
        with self.network.obs.tracer.span("overlay.route", node=self.name,
                                          kind=kind, origin=True):
            origin = origin or self.guid
            self._route_step({
                "key": key.hex,
                "kind": kind,
                "body": body or {},
                "origin": origin.hex,
                "hops": 0,
            }, key, origin)

    def broadcast(self, kind: str, body: Dict[str, Any]) -> None:
        """Announce over the overlay's distribution tree."""
        # a per-node sequence (not the timestamp) keeps ids unique when one
        # node originates two same-kind broadcasts in the same tick — e.g.
        # a survivor retracting two ranges after a correlated crash
        self._bcast_seq += 1
        bcast_id = f"{self.guid.hex[:12]}:{self._bcast_seq}:{kind}"
        payload = {"bcast_id": bcast_id, "kind": kind, "body": body, "hops": 0}
        self._apply_broadcast(payload)
        self._forward_tree(payload, self.guid)

    def dht_put(self, name: str, value: Any) -> None:
        self.route(GUID.from_name(name), "dht-put", {"name": name, "value": value})

    def dht_get(self, name: str) -> None:
        """Route a get; the result arrives as a ``dht-result`` delivery."""
        self.route(GUID.from_name(name), "dht-get", {"name": name})

    def lookup_place(self, place: str) -> Optional[str]:
        """Synchronous directory lookup (replicated cache)."""
        with self.network.obs.tracer.span_if_active(
                "overlay.lookup", node=self.name, place=place) as span:
            found = self.directory.get(place)
            if span is not None:
                span.set(found=found is not None)
        self._lookups[found is not None].inc()
        return found

    # -- failure detection -------------------------------------------------------------

    def enable_failure_detector(self, interval: float = 5.0,
                                timeout: float = 15.0,
                                on_suspect: Optional[Callable[[GUID, GUID], None]] = None) -> None:
        """Monitor leaf-set neighbours with periodic ``o-hb`` heartbeats.

        Leaf sets are ring-symmetric (my successor's predecessor is me), so
        one-way probes suffice: every neighbour I probe is probing me back,
        and ``timeout`` of silence from a neighbour means it is gone — the
        detector then fires ``on_suspect(suspect, self.guid)``. ``timeout``
        should span several intervals plus network latency so a single lost
        heartbeat never ejects a live node.

        Opt-in because the periodic probe keeps the scheduler busy forever,
        which would hang ``run_until_idle``-style workloads.
        """
        if self._fd_timer is not None:
            return
        self.fd_interval = interval
        self.fd_timeout = timeout
        self.on_suspect = on_suspect
        self._fd_last = {}
        self._fd_timer = self.scheduler.schedule_periodic(interval, self._fd_tick)

    def disable_failure_detector(self) -> None:
        if self._fd_timer is not None:
            self._fd_timer.cancel()
            self._fd_timer = None
        self._fd_last = {}

    def crash(self) -> None:
        """Simulate abrupt node death: stop probing, drop off the network.

        The management plane is *not* told — survivors must notice the
        silence through their own detectors (or an oracle ``fail`` call).
        """
        self.disable_failure_detector()
        self.detach()

    def _fd_tick(self) -> None:
        # a detached (crashed) node must not keep suspecting live peers
        if self.network.process(self.guid) is not self:
            self.disable_failure_detector()
            return
        now = self.scheduler.now
        # dedup in table order, not via set(): probe order decides wire order
        targets = list(dict.fromkeys(self.table.leaves()))
        live = frozenset(targets)
        for stale in [guid for guid in self._fd_last if guid not in live]:
            del self._fd_last[stale]
        for leaf in targets:
            self.send(leaf, "o-hb", {})
        self._fd_heartbeats.inc(len(targets))
        for leaf in targets:
            # first observation gets a full timeout of grace from now
            last = self._fd_last.setdefault(leaf, now)
            if now - last > self.fd_timeout:
                del self._fd_last[leaf]
                self._fd_suspicions.inc()
                logger.info("%s suspects %s (%.1fs of silence)",
                            self.name, leaf, now - last)
                if self.on_suspect is not None:
                    self.on_suspect(leaf, self.guid)

    # -- routing machinery -------------------------------------------------------------

    def _route_step(self, payload: Dict[str, Any], key: GUID,
                    origin: GUID) -> None:
        """One hop of ``payload``, whose ``key`` and ``origin`` are given
        parsed."""
        self.routed += 1
        if self._load is None:
            self._load = self._load_counter.series(node=self._node_label)
        self._load.inc()
        next_hop = self.table.next_hop(key)
        if next_hop is None:
            self._deliver(payload, origin)
            return
        if payload["hops"] >= GUID_DIGITS * 2:
            logger.warning("%s dropping over-hopped route to %s", self.name, key)
            return
        payload = dict(payload)
        payload["hops"] += 1
        self.send(next_hop, "o-route", payload)

    def _deliver(self, payload: Dict[str, Any], origin: GUID) -> None:
        self.delivered += 1
        self._delivered_counter.inc()
        self._hops_histogram.observe(payload["hops"])
        kind = payload["kind"]
        body = payload["body"]
        hops = payload["hops"]
        if kind == "dht-put":
            self.store[body["name"]] = body["value"]
        elif kind == "dht-get":
            self.send(origin, "o-delivery", {
                "kind": "dht-result",
                "body": {"name": body["name"],
                         "value": self.store.get(body["name"]),
                         "found": body["name"] in self.store},
                "hops": hops,
            })
        for callback in self.on_delivery:
            callback(kind, body, hops)

    # -- broadcast machinery ----------------------------------------------------------------

    def _apply_broadcast(self, payload: Dict[str, Any]) -> None:
        self._seen_broadcasts.add(payload["bcast_id"])
        kind = payload["kind"]
        body = payload["body"]
        if kind == "announce-range":
            for place in body.get("places", []):
                self.directory[place] = body["cs"]
        elif kind == "retract-range":
            doomed = {place for place, cs in self.directory.items()
                      if cs == body["cs"]}
            for place in doomed:
                del self.directory[place]
        for callback in self.on_delivery:
            callback(kind, body, payload["hops"])

    def _forward_tree(self, payload: Dict[str, Any], until: GUID) -> None:
        """Forward within this node's clockwise arc ``(self, until)``.

        Delegation rule: the known nodes inside the arc, in clockwise
        order, each receive the message once, and delegate ``d[i]`` becomes
        responsible for the sub-arc ``(d[i], d[i+1])`` (the last one
        inherits the original bound). Sub-arcs are disjoint and every
        member falls in exactly one, so a full-overlay announce delivers
        exactly once to every node — N-1 messages, no duplicates. Coverage
        needs only the leaf-set invariant (each node knows its immediate
        ring successor); see DESIGN.md, "Overlay fast paths".
        """
        span = _ring_offset(self.guid, until)
        if span == 0:
            span = _RING  # originator: the whole ring is this node's arc
        delegates: List[GUID] = []
        for node in self.table.nodes_clockwise():
            if _ring_offset(self.guid, node) >= span:
                break  # clockwise order: everything further is outside
            delegates.append(node)
        if not delegates:
            return
        hops = payload["hops"] + 1
        for index, node in enumerate(delegates):
            bound = (delegates[index + 1] if index + 1 < len(delegates)
                     else until)
            onward = dict(payload)
            onward["hops"] = hops
            onward["until"] = bound.hex
            self.send(node, "o-bcast", onward)
        self._bcast_sent.inc(len(delegates))

    # -- messages ----------------------------------------------------------------------------

    def _body_refused(self, message: Message) -> bool:
        """Check the inner body of a kind this node applies against its
        :data:`BODIES` row before anything else happens; refuse (none of
        these verbs has a reply) and say so when it fails."""
        body = BODIES.get(message.fields["kind"])
        try:
            if body is not None:
                body.parse(message.fields["body"])
        except WireError as exc:
            self.refuse(message, exc)
            return True
        return False

    def _handle_o_route(self, message: Message) -> None:
        if self._body_refused(message):
            return
        fields = message.fields
        # one span per forwarding hop, chained under the origin's span
        with self.network.obs.tracer.span_if_active(
                "overlay.route", node=self.name, hops=fields["hops"]):
            self._route_step(message.payload, fields["key"], fields["origin"])

    def _handle_o_bcast(self, message: Message) -> None:
        if self._body_refused(message):
            return
        fields = message.fields
        if fields["bcast_id"] in self._seen_broadcasts:
            self._bcast_dup.inc()
            return
        self._apply_broadcast(message.payload)
        self._forward_tree(message.payload, fields["until"])

    def _handle_o_delivery(self, message: Message) -> None:
        fields = message.fields
        with self.network.obs.tracer.span_if_active(
                "overlay.deliver", node=self.name, kind=fields["kind"]):
            for callback in self.on_delivery:
                callback(fields["kind"], fields["body"], fields["hops"])

    def _handle_o_hb(self, message: Message) -> None:
        self._fd_last[message.sender] = self.scheduler.now
