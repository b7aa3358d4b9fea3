"""SCINET membership management and the range directory.

Section 3: "The SCINET can be created via Range discovery, requiring little
initialisation. Alternatively it may be desirable to group relevant Ranges
together, such as those operating within an individual building or across a
larger area in order to control access and increase performance."

Membership is a management-plane concern here: :meth:`SCINet.join` seeds the
new node's routing table and notifies the nodes that need to learn of the
newcomer (what a full Pastry join protocol converges to);
:meth:`SCINet.leave`/:meth:`SCINet.fail` remove a node from all tables. The
data plane — routing, DHT, directory replication — is entirely
message-based through :class:`~repro.overlay.node.OverlayNode`.

Membership is incremental: a sorted GUID ring is maintained with bisect; a
join seeds the newcomer from its two ring flankers' tables, announces it to
the nodes it learned of, and recomputes exact leaf lists — straight from
the ring, in O(LEAF_HALF) each — for only the <= 2*LEAF_HALF ring
neighbours whose leaf sets can change. Departures repair the same bounded
neighbourhood, so per-membership-change work is O(log N)-ish. The seed
behaviour — full-mesh table seeding plus re-sorting the entire membership
for every node on every change, O(N log N) *per node* — is the test-side
ground truth in ``tests/overlay/reference_membership.py``.

Range discovery: when a range joins, its node broadcasts an
``announce-range`` carrying the places it governs; every node replicates the
directory, giving Context Servers the synchronous ``peer_lookup`` they need
when deciding whether to forward a query (Section 5's lobby -> Level 10
hand-over).
"""

from __future__ import annotations

import bisect
import logging
from typing import Dict, Iterable, List, Optional

from repro.core.errors import RoutingError
from repro.core.ids import GUID
from repro.net.transport import Network
from repro.overlay.node import LEAF_HALF, OverlayNode

logger = logging.getLogger(__name__)


class SCINet:
    """Manager for one overlay (one "group" of ranges)."""

    def __init__(self, network: Network, group_name: str = "scinet",
                 failure_detection: bool = False,
                 fd_interval: float = 5.0, fd_timeout: float = 15.0):
        self.network = network
        self.group_name = group_name
        #: heartbeat failure detection on every member (opt-in: the periodic
        #: probes keep the scheduler busy, so idle-driven workloads must not
        #: enable it). With it off, failures are removed only by the oracle
        #: :meth:`fail` call — the ablation baseline.
        self.failure_detection = failure_detection
        self.fd_interval = fd_interval
        self.fd_timeout = fd_timeout
        self._nodes: Dict[str, OverlayNode] = {}
        #: members sorted by GUID value — the ring exact leaf sets are
        #: derived from
        self._ring: List[GUID] = []
        self.fd_removals = 0
        self._fd_removals_counter = network.obs.metrics.counter(
            "overlay.fd.removals")

    # -- membership -----------------------------------------------------------------

    def join(self, node: OverlayNode,
             places: Optional[List[str]] = None) -> OverlayNode:
        """Add ``node`` to the overlay and announce its range's places."""
        if node.guid.hex in self._nodes:
            raise RoutingError(f"node already in {self.group_name}: {node.guid}")
        self._add_member(node)
        if self.failure_detection:
            node.enable_failure_detector(self.fd_interval, self.fd_timeout,
                                         self._node_suspected)
        if places:
            node.broadcast("announce-range", {
                "range": node.range_name,
                "cs": node.owner_cs_hex or node.guid.hex,
                "places": list(places),
            })
            # the broadcaster's own directory is updated in broadcast()
        logger.info("%s: %s joined (%d nodes)", self.group_name,
                    node.range_name or node.guid, len(self._nodes))
        return node

    def _add_member(self, node: OverlayNode) -> None:
        """Pastry-style join: seed from the ring flankers, announce to the
        learned set, repair leaf sets only around the insertion point."""
        guid = node.guid
        index = bisect.bisect_left(self._ring, guid)
        members = len(self._ring)
        if members:
            flankers = {self._ring[index % members],
                        self._ring[(index - 1) % members]}
            for flanker in flankers:
                member = self._nodes[flanker.hex]
                node.table.add(flanker)
                # every copied entry self-files under the correct row/digit
                for known in member.table.known_nodes():
                    if known != guid:
                        node.table.add(known)
                # directory transfer from the replicated cache — any single
                # quiesced member carries the full directory, so a newcomer
                # knows the places announced before it joined (Section 5's
                # forwarding works regardless of which range booted first)
                for place, cs_hex in member.directory.items():
                    node.directory.setdefault(place, cs_hex)
        self._ring.insert(index, guid)
        self._nodes[guid.hex] = node
        # the join's final step: the newcomer introduces itself to every
        # node it learned of, so routes toward its arc start landing on it
        for known in node.table.known_nodes():
            self._nodes[known.hex].table.add(guid)
        # exact leaf sets for the newcomer and the only nodes whose leaf
        # sets can have changed: its <= 2*LEAF_HALF ring neighbours
        self._recompute_leaves(range(index - LEAF_HALF, index + LEAF_HALF + 1))

    def create_node(self, host_id: str, range_name: str = "",
                    owner_cs_hex: Optional[str] = None,
                    places: Optional[List[str]] = None) -> OverlayNode:
        """Convenience: mint, attach and join a node in one call."""
        guid = self.network.guids.mint()
        self.network.ensure_host(host_id)
        node = OverlayNode(guid, host_id, self.network, range_name,
                           owner_cs_hex)
        return self.join(node, places=places)

    def leave(self, node_hex: str) -> None:
        """Graceful departure: retract directory entries, update tables."""
        node = self._nodes.get(node_hex)
        if node is None:
            return
        node.broadcast("retract-range", {"cs": node.owner_cs_hex or node.guid.hex})
        self._remove_member(node)
        node.disable_failure_detector()
        node.detach()

    def fail(self, node_hex: str) -> None:
        """Abrupt failure: the node vanishes; members repair their tables.

        (In a full Pastry, repair is lazy on failed forwards; here the
        management plane repairs eagerly, which is equivalent for the
        routing-correctness experiments.) A survivor retracts the dead
        range's directory entries on its behalf, so queries stop being
        forwarded to a Context Server that can no longer answer — the same
        outcome the heartbeat detector converges to.
        """
        node = self._nodes.get(node_hex)
        if node is not None:
            self._eject(node)

    def _node_suspected(self, suspect: GUID, reporter: GUID) -> None:
        """A member's failure detector reported ``suspect`` silent.

        The suspect is ejected exactly as an oracle :meth:`fail` would eject
        it: membership, ring and routing tables are repaired and a survivor
        retracts its directory entries. If the suspicion was false — the
        node is alive but its heartbeats were lost for a whole timeout —
        the eject still stands (shunning): the node is crashed for real so
        a wrongly-ejected-but-live node cannot keep suspecting survivors
        and cascade the ejection around the ring.
        """
        node = self._nodes.get(suspect.hex)
        if node is None:
            return  # already ejected (several neighbours suspect at once)
        logger.info("%s: %s ejected on suspicion by %s", self.group_name,
                    node.range_name or suspect, reporter)
        self.fd_removals += 1
        self._fd_removals_counter.inc()
        self._eject(node)

    def _eject(self, dead: OverlayNode) -> None:
        """Remove and crash ``dead``; any survivor broadcasts its retraction.

        The survivor must still be attached: under a multi-node crash a
        member can be dead but not yet suspected, and a retraction
        "broadcast" from a detached process silently reaches nobody.
        """
        self._remove_member(dead)
        dead.crash()
        survivor = next((n for n in self._nodes.values()
                         if self.network.process(n.guid) is n), None)
        if survivor is not None:
            survivor.broadcast("retract-range",
                               {"cs": dead.owner_cs_hex or dead.guid.hex})

    def _remove_member(self, node: OverlayNode) -> None:
        del self._nodes[node.guid.hex]
        index = bisect.bisect_left(self._ring, node.guid)
        self._ring.pop(index)
        for member in self._nodes.values():
            member.table.remove(node.guid)
        # only the departed node's ring neighbourhood can have held it
        # in a leaf set; restore their exact lists from the ring
        self._recompute_leaves(range(index - LEAF_HALF, index + LEAF_HALF))

    def _recompute_leaves(self, indices: Iterable[int]) -> None:
        """Install exact, ring-derived leaf lists for the given ring
        positions (modulo the ring; duplicates collapse)."""
        ring = self._ring
        members = len(ring)
        if not members:
            return
        count = min(LEAF_HALF, members - 1)
        done = set()
        for raw in indices:
            i = raw % members
            if i in done:
                continue
            done.add(i)
            owner = ring[i]
            right = [ring[(i + 1 + j) % members] for j in range(count)]
            left = [ring[(i - 1 - j) % members] for j in range(count)]
            self._nodes[owner.hex].table.set_leaf_lists(right, left)

    # -- introspection ----------------------------------------------------------------

    def nodes(self) -> List[OverlayNode]:
        return list(self._nodes.values())

    def node(self, node_hex: str) -> Optional[OverlayNode]:
        return self._nodes.get(node_hex)

    def size(self) -> int:
        return len(self._nodes)

    def closest_node(self, key: GUID) -> OverlayNode:
        """Ground truth for tests: who *should* a key route to?"""
        if not self._nodes:
            raise RoutingError(f"{self.group_name} is empty")
        return min(self._nodes.values(),
                   key=lambda node: (key.distance(node.guid), node.guid))

    def total_routed(self) -> int:
        return sum(node.routed for node in self._nodes.values())

    def load_by_node(self) -> Dict[str, int]:
        return {node.name: node.routed for node in self._nodes.values()}
