"""Incremental membership ground truth + routing-table memo + tree broadcast.

The incremental join/leave/fail path repairs only a bounded ring
neighbourhood; these tests pin it to the from-scratch ground truth: after
*any* membership sequence, every node's leaf lists must equal what a fresh
``RoutingTable.set_leaves(full_membership)`` would produce — including the
wrap-around regimes where N <= 2*LEAF_HALF and both sides overlap.
"""

import random

import pytest

from repro.core.ids import GUID
from repro.net.transport import FixedLatency, Network
from repro.overlay.node import LEAF_HALF, RoutingTable
from repro.overlay.scinet import SCINet
from tests.overlay.reference_membership import ReferenceSCINet


def fresh_scinet(seed=5, scinet=SCINet):
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    return net, scinet(net)


def assert_leaves_match_ground_truth(sci):
    """Every node's incremental leaf lists == from-scratch set_leaves()."""
    members = [node.guid for node in sci.nodes()]
    for node in sci.nodes():
        expected = RoutingTable(node.guid)
        expected.set_leaves(members)
        assert node.table._right == expected._right, (
            f"right leaves diverged on {node.guid} with {len(members)} members")
        assert node.table._left == expected._left, (
            f"left leaves diverged on {node.guid} with {len(members)} members")


class TestIncrementalLeafSets:
    def test_every_join_matches_set_leaves(self):
        _, sci = fresh_scinet()
        for i in range(25):
            sci.create_node(f"h{i % 4}")
            assert_leaves_match_ground_truth(sci)

    @pytest.mark.parametrize("n", range(1, 2 * LEAF_HALF + 3))
    def test_wraparound_sizes(self, n):
        # N <= 2*LEAF_HALF is the regime where both leaf sides cover the
        # whole ring and overlap each other
        _, sci = fresh_scinet()
        for i in range(n):
            sci.create_node(f"h{i}")
        assert_leaves_match_ground_truth(sci)
        if n > 1:
            sci.fail(sci.nodes()[n // 2].guid.hex)
            assert_leaves_match_ground_truth(sci)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_churn_matches_set_leaves(self, seed):
        _, sci = fresh_scinet(seed=seed)
        rng = random.Random(seed)
        joined = 0
        for _ in range(60):
            op = rng.random()
            if op < 0.55 or sci.size() <= 1:
                sci.create_node(f"h{joined % 8}")
                joined += 1
            elif op < 0.8:
                victim = sci.nodes()[rng.randrange(sci.size())]
                sci.leave(victim.guid.hex)
            else:
                victim = sci.nodes()[rng.randrange(sci.size())]
                sci.fail(victim.guid.hex)
            assert_leaves_match_ground_truth(sci)

    def test_incremental_and_naive_agree_on_leaves(self):
        worlds = [fresh_scinet(seed=9),
                  fresh_scinet(seed=9, scinet=ReferenceSCINet)]
        for _, sci in worlds:
            for i in range(20):
                sci.create_node(f"h{i % 4}")
            sci.fail(sci.nodes()[5].guid.hex)
            sci.leave(sci.nodes()[11].guid.hex)
        fast, naive = worlds[0][1], worlds[1][1]
        # same network seed => same GUID mint order => comparable node-wise
        for fast_node, naive_node in zip(fast.nodes(), naive.nodes()):
            assert fast_node.guid == naive_node.guid
            assert fast_node.table._right == naive_node.table._right
            assert fast_node.table._left == naive_node.table._left


class TestKnownNodesCache:
    def guids(self, count, seed=3):
        rng = random.Random(seed)
        return [GUID(rng.getrandbits(128)) for _ in range(count)]

    def expected_views(self, table):
        nodes = set(table._right) | set(table._left)
        for slot in table._rows.values():
            nodes.update(slot.values())
        by_value = sorted(nodes)
        ring = 1 << 128
        clockwise = sorted(
            nodes, key=lambda n: (n.value - table.owner.value) % ring)
        return by_value, clockwise, nodes

    def test_views_stay_exact_across_mutations(self):
        owner, *others = self.guids(40)
        table = RoutingTable(owner)
        rng = random.Random(11)
        present = []
        for step, node in enumerate(others):
            table.add(node)
            present.append(node)
            if step % 5 == 4:
                doomed = present.pop(rng.randrange(len(present)))
                table.remove(doomed)
            if step % 7 == 6:
                table.set_leaves([owner] + present)
            by_value, clockwise, nodes = self.expected_views(table)
            assert table.known_nodes() == by_value
            assert table.nodes_clockwise() == clockwise
            assert table.size() == len(nodes)
            assert all(n in table for n in nodes)
            assert owner not in table

    def test_repeated_reads_hit_the_memo(self):
        owner, *others = self.guids(20)
        table = RoutingTable(owner)
        for node in others:
            table.add(node)
        table.known_nodes()  # first read after mutations builds once
        builds = table.cache_builds
        for _ in range(50):
            table.known_nodes()
            table.nodes_clockwise()
            table.size()
        assert table.cache_builds == builds
        assert table.cache_hits >= 150

    def test_mutation_invalidates(self):
        # an empty table accepts any entry (no incumbent to out-rank it)
        owner, newcomer = self.guids(2)
        table = RoutingTable(owner)
        assert newcomer not in table
        table.add(newcomer)
        assert newcomer in table
        assert newcomer in table.known_nodes()
        table.remove(newcomer)
        assert newcomer not in table
        assert table.known_nodes() == []


class TestTreeBroadcast:
    def test_exactly_n_minus_one_messages(self):
        net, sci = fresh_scinet()
        for i in range(32):
            sci.create_node(f"h{i % 4}")
        net.run_until_idle()
        sent = net.stats.by_kind.get("o-bcast", 0)
        sci.nodes()[7].broadcast("announce-range",
                                 {"range": "x", "cs": "cs-x",
                                  "places": ["room-x"]})
        net.run_until_idle()
        assert net.stats.by_kind["o-bcast"] - sent == 31
        assert all(n.lookup_place("room-x") == "cs-x" for n in sci.nodes())
        dup = net.obs.metrics.counter("overlay.bcast.dup_suppressed")
        assert dup.total() == 0

    def test_flood_reaches_everyone_with_duplicates(self):
        # the test-side flood reference: reaches everyone, and the dedup
        # set still in src/ absorbs the duplicate arrivals it creates
        net, sci = fresh_scinet(scinet=ReferenceSCINet)
        for i in range(32):
            sci.create_node(f"h{i % 4}")
        net.run_until_idle()
        sent = net.stats.by_kind.get("o-bcast", 0)
        sci.nodes()[7].broadcast("announce-range",
                                 {"range": "x", "cs": "cs-x",
                                  "places": ["room-x"]})
        net.run_until_idle()
        assert net.stats.by_kind["o-bcast"] - sent > 31
        assert all(n.lookup_place("room-x") == "cs-x" for n in sci.nodes())
        dup = net.obs.metrics.counter("overlay.bcast.dup_suppressed")
        assert dup.total() > 0

    def test_mode_counters_record_the_path_taken(self):
        net, sci = fresh_scinet()
        for i in range(16):
            sci.create_node(f"h{i % 4}", range_name=f"r{i}",
                            places=[f"place-{i}"])
        net.run_until_idle()
        sent = net.obs.metrics.counter("overlay.bcast.sent",
                                       labels=("mode",))
        assert sent.value(mode="tree") > 0
        assert sent.value(mode="flood") == 0

