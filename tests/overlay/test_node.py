"""Overlay node: routing table invariants and next-hop progress."""

import random

import pytest

from repro.core.ids import GUID, GuidFactory
from repro.net.transport import FixedLatency, Network
from repro.overlay.node import LEAF_HALF, OverlayNode, RoutingTable
from repro.overlay.scinet import SCINet
from tests.overlay.reference_membership import set_leaves


class TestRoutingTable:
    def test_add_self_ignored(self):
        owner = GUID(42)
        table = RoutingTable(owner)
        table.add(owner)
        assert table.known_nodes() == []

    def test_leaf_sets_exact(self):
        guids = GuidFactory(seed=1)
        members = sorted(guids.mint_many(20))
        owner = members[10]
        table = RoutingTable(owner)
        set_leaves(table, members)
        assert len(table.leaves()) == 2 * LEAF_HALF

    def test_next_hop_none_for_self(self):
        owner = GUID(42)
        assert RoutingTable(owner).next_hop(owner) is None

    def test_next_hop_none_when_alone(self):
        table = RoutingTable(GUID(42))
        assert table.next_hop(GUID(43)) is None

    def test_next_hop_makes_progress(self):
        """Every hop strictly increases (prefix, -distance) toward the key:
        the loop-freedom invariant."""
        rng = random.Random(3)
        guids = GuidFactory(seed=3)
        members = guids.mint_many(64)
        tables = {}
        for owner in members:
            table = RoutingTable(owner)
            for other in members:
                table.add(other)
            set_leaves(table, members)
            tables[owner] = table
        for _ in range(200):
            key = GUID(rng.getrandbits(128))
            current = members[rng.randrange(len(members))]
            for _step in range(40):
                hop = tables[current].next_hop(key)
                if hop is None:
                    break
                # each hop either improves the (prefix, -distance) rank
                # (prefix/fallback rules) or strictly shrinks the numeric
                # distance (terminal leaf-span hop)
                old_rank = (current.shared_prefix_len(key), -key.distance(current))
                new_rank = (hop.shared_prefix_len(key), -key.distance(hop))
                assert (new_rank > old_rank
                        or key.distance(hop) < key.distance(current)), \
                    "hop must make progress"
                current = hop
            else:
                pytest.fail("routing did not terminate")

    def test_remove_cleans_everywhere(self):
        guids = GuidFactory(seed=2)
        members = guids.mint_many(10)
        table = RoutingTable(members[0])
        for other in members[1:]:
            table.add(other)
        set_leaves(table, members)
        table.remove(members[5])
        assert members[5] not in table.known_nodes()


class TestNodeDelivery:
    @pytest.fixture
    def mesh(self):
        net = Network(latency_model=FixedLatency(1.0), seed=9)
        sci = SCINet(net)
        nodes = [sci.create_node(f"h{i}", range_name=f"r{i}")
                 for i in range(24)]
        return net, sci, nodes

    def test_all_keys_reach_closest_node(self, mesh):
        net, sci, nodes = mesh
        rng = random.Random(1)
        for trial in range(60):
            key = GUID(rng.getrandbits(128))
            expected = sci.closest_node(key)
            seen = []
            callback = lambda kind, body, hops, s=seen: s.append(hops)
            expected.on_delivery.append(callback)
            nodes[rng.randrange(len(nodes))].route(key, "probe", {"t": trial})
            net.scheduler.run_for(60)
            expected.on_delivery.remove(callback)
            assert seen, f"trial {trial}: key not delivered to closest node"

    def test_hop_count_logarithmic(self, mesh):
        net, sci, nodes = mesh
        rng = random.Random(2)
        hops = []
        for trial in range(50):
            key = GUID(rng.getrandbits(128))
            expected = sci.closest_node(key)
            callback = lambda kind, body, h, hh=hops: hh.append(h)
            expected.on_delivery.append(callback)
            nodes[rng.randrange(len(nodes))].route(key, "probe", {})
            net.scheduler.run_for(60)
            expected.on_delivery.remove(callback)
        assert max(hops) <= 6  # log16(24) ~ 1.1; generous bound
        assert sum(hops) / len(hops) < 3.0

    def test_dht_put_get(self, mesh):
        net, sci, nodes = mesh
        nodes[0].dht_put("place:L10.01", "cs-l10")
        net.scheduler.run_for(30)
        result = {}
        nodes[7].on_delivery.append(
            lambda kind, body, hops: result.update(body)
            if kind == "dht-result" else None)
        nodes[7].dht_get("place:L10.01")
        net.scheduler.run_for(30)
        assert result["found"] is True
        assert result["value"] == "cs-l10"

    def test_dht_get_missing(self, mesh):
        net, sci, nodes = mesh
        result = {}
        nodes[3].on_delivery.append(
            lambda kind, body, hops: result.update(body)
            if kind == "dht-result" else None)
        nodes[3].dht_get("place:narnia")
        net.scheduler.run_for(30)
        assert result["found"] is False

    def test_broadcast_reaches_all(self, mesh):
        net, sci, nodes = mesh
        nodes[0].broadcast("announce-range",
                           {"range": "x", "cs": "cs-x", "places": ["room-1"]})
        net.scheduler.run_for(60)
        assert all(node.lookup_place("room-1") == "cs-x" for node in nodes)

    def test_routed_load_counted(self, mesh):
        net, sci, nodes = mesh
        rng = random.Random(4)
        for _ in range(50):
            key = GUID(rng.getrandbits(128))
            nodes[rng.randrange(len(nodes))].route(key, "probe", {})
        net.scheduler.run_for(120)
        assert sci.total_routed() >= 50


RING = 1 << 128


def scan_delegates(node, until):
    """The delegates of ``node``'s arc ``(node, until)`` by a linear scan:
    every known node strictly inside the arc, nearest clockwise first."""
    span = (until.value - node.guid.value) % RING or RING
    inside = [known for known in node.table.known_nodes()
              if (known.value - node.guid.value) % RING < span]
    return sorted(inside, key=lambda known: (known.value - node.guid.value)
                  % RING)


class TestForwardTree:
    """``_forward_tree`` picks its delegates with one bisect over memoised
    ring offsets; they must be the linear scan's, each with the next one
    as its bound and the last with the forwarder's own."""

    @staticmethod
    def ring(seed, size):
        net = Network(latency_model=FixedLatency(1.0), seed=seed)
        sci = SCINet(net)
        for index in range(size):
            sci.create_node(f"h{index % 3}")
        net.run_until_idle()
        return sci.nodes()

    @staticmethod
    def forwarded(node, until):
        """(delegate, its bound) of each o-bcast ``node`` sends for the arc
        ``(node, until)``."""
        sent = []
        node.send = lambda recipient, kind, payload: sent.append(
            (recipient, GUID.from_hex(payload["until"])))
        try:
            node._forward_tree({"bcast_id": "b", "kind": "k", "body": {},
                                "hops": 0}, until)
        finally:
            del node.send
        return sent

    def check(self, node, until):
        delegates = scan_delegates(node, until)
        bounds = delegates[1:] + [until]
        assert self.forwarded(node, until) == list(zip(delegates, bounds))
        return delegates

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_rings(self, seed):
        nodes = self.ring(seed, 12 + 7 * seed)
        rng = random.Random(seed)
        wrapped = 0
        for node in nodes:
            self.check(node, node.guid)  # the originator: the whole ring
            for _ in range(4):
                until = rng.choice(nodes).guid
                self.check(node, until)
                wrapped += until.value < node.guid.value
            # bounds that are no member: just past the owner, just before
            # it (the longest arc that is not the whole ring) and across 0
            for value in (node.guid.value + 1, node.guid.value - 1,
                          rng.randrange(node.guid.value)
                          if node.guid.value else 0):
                self.check(node, GUID(value % RING))
        assert wrapped  # some arcs ran past the top of the ring

    def test_arc_across_zero_is_split_at_the_wrap(self):
        """The forwarder at the top of the ring, whose arc ends past the
        bottom node, delegates across 0 to that node."""
        nodes = self.ring(9, 24)
        top = max(nodes, key=lambda node: node.guid.value)
        bottom = min(nodes, key=lambda node: node.guid.value)
        beyond = [guid for guid in top.table.known_nodes()
                  if guid.value > bottom.guid.value]
        until = beyond[0] if beyond else top.guid
        assert bottom.guid in self.check(top, until)
