"""Full-refresh membership and the dedup flood, kept as overlay references.

These were ``SCINet(incremental=False)`` and ``SCINet(flood=True)`` /
``broadcast(flood=True)`` before incremental ring membership and the
distribution tree became the only overlay paths in ``src/``:

* **Full refresh** — a join seeds the newcomer's table with every member
  (full mesh) and every membership change re-sorts the whole membership
  for every node through :meth:`RoutingTable.set_leaves`, O(N log N) *per
  node*. It is the from-scratch ground truth the incremental ring repair
  must equal.
* **Dedup flood** — every node forwards a broadcast to every node it knows;
  the per-node dedup set (still in ``src/``, as a safety net) suppresses
  the duplicate arrivals. It reaches everyone by construction, so the
  tree's N-1 deliveries must replicate the same directories.

Only join/remove and the forwarding rule are swapped. Announce/retract
handling, the dedup set, failure detection and the wire format are the
production classes' own, so a divergence can only come from how leaf sets
are maintained or how a broadcast fans out.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional

from repro.core.ids import GUID
from repro.overlay.node import OverlayNode
from repro.overlay.scinet import SCINet


class FloodNode(OverlayNode):
    """:class:`OverlayNode` that forwards broadcasts to every known node."""

    def _forward_tree(self, payload: Dict[str, Any], until: GUID) -> None:
        onward = dict(payload)
        onward["hops"] += 1
        onward["until"] = until.hex  # carried for the wire format, unused
        targets = self.table.known_nodes()
        for node in targets:
            self.send(node, "o-bcast", onward)
        if targets:
            self.network.obs.metrics.counter("overlay.bcast.sent").inc(
                len(targets), mode="flood")


class ReferenceSCINet(SCINet):
    """:class:`SCINet` with either overlay path swapped for its reference.

    ``full_refresh`` selects the membership strategy, ``flood`` the node
    class :meth:`create_node` mints; both default to the reference, and
    turning one off leaves the production path in its place so the mixed
    worlds of the equivalence property can be built.
    """

    def __init__(self, network, full_refresh: bool = True, flood: bool = True,
                 **kwargs):
        super().__init__(network, **kwargs)
        self.full_refresh = full_refresh
        self.node_class = FloodNode if flood else OverlayNode

    def create_node(self, host_id: str, range_name: str = "",
                    owner_cs_hex: Optional[str] = None,
                    places: Optional[List[str]] = None) -> OverlayNode:
        guid = self.network.guids.mint()
        self.network.ensure_host(host_id)
        node = self.node_class(guid, host_id, self.network, range_name,
                               owner_cs_hex)
        return self.join(node, places=places)

    def _add_member(self, node: OverlayNode) -> None:
        if not self.full_refresh:
            super()._add_member(node)
            return
        for member in self._nodes.values():
            node.table.add(member.guid)
            member.table.add(node.guid)
            for place, cs_hex in member.directory.items():
                node.directory.setdefault(place, cs_hex)
        self._nodes[node.guid.hex] = node
        bisect.insort(self._ring, node.guid)
        self._refresh_leaf_sets()

    def _remove_member(self, node: OverlayNode) -> None:
        if not self.full_refresh:
            super()._remove_member(node)
            return
        del self._nodes[node.guid.hex]
        self._ring.remove(node.guid)
        for member in self._nodes.values():
            member.table.remove(node.guid)
        self._refresh_leaf_sets()

    def _refresh_leaf_sets(self) -> None:
        members = [node.guid for node in self._nodes.values()]
        for node in self._nodes.values():
            node.table.set_leaves(members)
