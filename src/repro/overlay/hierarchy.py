"""The hierarchical comparator for the Figure-1 experiment.

The paper's claim: "Routing through an overlay network avoids any
bottlenecks created when using hierarchical infrastructures whilst achieving
comparable performance [9]."

To test that we need the thing it beats: a tree of servers where messages
between leaves climb to the lowest common ancestor and descend — every
cross-subtree message transits interior nodes, concentrating load at the
root. Each node applies a service time per message (a server's processing
capacity), so under load the root's queue — and end-to-end latency — grows.
Overlay nodes get no service time: the Figure-1 runners send one probe at
a time, so no queue forms at either, overlay latency is its hop count, and
the comparison the benchmark makes is per-node *load*, not latency under
load.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import RoutingError
from repro.core.ids import GUID
from repro.net.message import Message
from repro.net.transport import Network, Process

logger = logging.getLogger(__name__)


class HierarchyNode(Process):
    """One server in the tree."""

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 label: str, service_time: float = 0.0):
        super().__init__(guid, host_id, network, name=f"tree:{label}")
        self.label = label
        self.service_time = service_time
        self.parent: Optional["HierarchyNode"] = None
        self.children: List["HierarchyNode"] = []
        #: leaf labels reachable through each child (routing state)
        self._leaf_index: Dict[str, "HierarchyNode"] = {}
        self._busy_until = 0.0
        self.handled = 0
        self.max_queue_delay = 0.0
        self.on_delivery: List[Callable[[str, Dict[str, Any], int], None]] = []

    @property
    def role(self) -> str:
        """Position in the tree, for the load-by-role metric series."""
        if self.parent is None:
            return "root" if self.children else "leaf"
        return "interior" if self.children else "leaf"

    # -- tree construction -------------------------------------------------------

    def attach_child(self, child: "HierarchyNode") -> None:
        child.parent = self
        self.children.append(child)

    def index_leaf(self, leaf_label: str, via: "HierarchyNode") -> None:
        self._leaf_index[leaf_label] = via

    # -- routing --------------------------------------------------------------------

    def route(self, target_leaf: str, kind: str,
              body: Optional[Dict[str, Any]] = None) -> None:
        """Originate a message from this node toward a leaf label."""
        self._route_step({
            "target": target_leaf,
            "kind": kind,
            "body": body or {},
            "hops": 0,
        })

    def _route_step(self, payload: Dict[str, Any]) -> None:
        # Model server capacity: each message occupies the node for
        # service_time; concurrent arrivals queue.
        now = self.scheduler.now
        start = max(now, self._busy_until)
        self._busy_until = start + self.service_time
        queue_delay = start - now
        self.max_queue_delay = max(self.max_queue_delay, queue_delay)
        self.handled += 1
        self.network.obs.metrics.counter(
            "hierarchy.node.load").inc(node=self.label, role=self.role)
        self.network.obs.metrics.histogram(
            "hierarchy.queue.delay").observe(queue_delay)
        delay = (start + self.service_time) - now
        if delay > 0:
            self.scheduler.schedule(delay, self._forward, payload)
        else:
            self._forward(payload)

    def _forward(self, payload: Dict[str, Any]) -> None:
        target = payload["target"]
        if target == self.label:
            for callback in self.on_delivery:
                callback(payload["kind"], payload["body"], payload["hops"])
            return
        via = self._leaf_index.get(target)
        next_node = via if via is not None else self.parent
        if next_node is None:
            logger.warning("%s cannot route to %r", self.name, target)
            return
        onward = dict(payload)
        onward["hops"] += 1
        self.send(next_node.guid, "h-route", onward)

    def _handle_h_route(self, message: Message) -> None:
        self._route_step(message.payload)


class HierarchyNetwork:
    """A balanced tree of :class:`HierarchyNode` servers."""

    def __init__(self, network: Network, leaf_count: int,
                 branching: int = 4, service_time: float = 0.0,
                 host_prefix: str = "tree"):
        if leaf_count < 1:
            raise RoutingError(f"need at least one leaf, got {leaf_count}")
        if branching < 2:
            raise RoutingError(f"branching must be >= 2, got {branching}")
        self.network = network
        self.branching = branching
        self._leaves: Dict[str, HierarchyNode] = {}
        self._all: List[HierarchyNode] = []

        def make_node(label: str) -> HierarchyNode:
            host = network.ensure_host(f"{host_prefix}:{label}")
            node = HierarchyNode(network.guids.mint(), host.host_id, network,
                                 label, service_time)
            self._all.append(node)
            return node

        # build leaves, then stack interior levels up to a single root
        level = [make_node(f"leaf-{index}") for index in range(leaf_count)]
        for node in level:
            self._leaves[node.label] = node
        depth = 0
        while len(level) > 1:
            depth += 1
            parents = []
            for start in range(0, len(level), branching):
                group = level[start:start + branching]
                parent = make_node(f"int-{depth}-{start // branching}")
                for child in group:
                    parent.attach_child(child)
                parents.append(parent)
            level = parents
        self.root = level[0]
        self._index_leaves(self.root)

    def _index_leaves(self, node: HierarchyNode) -> List[str]:
        """Populate each interior node's leaf index; returns leaves below."""
        if not node.children:
            return [node.label]
        below: List[str] = []
        for child in node.children:
            leaves = self._index_leaves(child)
            for leaf in leaves:
                node.index_leaf(leaf, via=child)
            below.extend(leaves)
        return below

    # -- API mirroring SCINet for the benchmark harness ------------------------------

    def leaf(self, index: int) -> HierarchyNode:
        return self._leaves[f"leaf-{index}"]

    def size(self) -> int:
        return len(self._all)

    def load_by_node(self) -> Dict[str, int]:
        return {node.label: node.handled for node in self._all}

    def root_load(self) -> int:
        return self.root.handled
