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
