"""Property: tree and flood dissemination replicate identical directories.

For arbitrary interleavings of join/leave/fail/announce, the four worlds —
{incremental, full-refresh membership} x {tree, flood broadcast} — must
quiesce to the *same* replicated range directory on *every* surviving node.
The production overlay is the incremental/tree world; the other three swap
in the references of :mod:`tests.overlay.reference_membership`. The worlds
share a network seed, so GUID minting (and hence ring structure) is
identical and node-by-node comparison is exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.transport import FixedLatency, Network
from repro.overlay.scinet import SCINet
from tests.overlay.reference_membership import ReferenceSCINet, set_leaves

#: (op, selector) — selector picks the target node modulo current size
operations = st.lists(
    st.tuples(st.sampled_from(["join", "leave", "fail", "announce"]),
              st.integers(min_value=0, max_value=10 ** 6)),
    max_size=24)

MODES = (
    {"full_refresh": False, "flood": False},  # production: src/ as shipped
    {"full_refresh": False, "flood": True},
    {"full_refresh": True, "flood": False},
    {"full_refresh": True, "flood": True},    # the seed behaviour
)


def run_world(ops, full_refresh=False, flood=False):
    net = Network(latency_model=FixedLatency(1.0), seed=17)
    if full_refresh or flood:
        sci = ReferenceSCINet(net, full_refresh=full_refresh, flood=flood)
    else:
        sci = SCINet(net)
    serial = 0
    for _ in range(3):  # a non-trivial starting overlay
        sci.create_node(f"h{serial % 8}", range_name=f"r{serial}",
                        owner_cs_hex=f"cs-{serial}",
                        places=[f"place-{serial}"])
        serial += 1
    net.run_until_idle()
    for op, selector in ops:
        if op == "join":
            sci.create_node(f"h{serial % 8}", range_name=f"r{serial}",
                            owner_cs_hex=f"cs-{serial}",
                            places=[f"place-{serial}", f"door-{serial}"])
            serial += 1
        elif op == "announce":
            node = sci.nodes()[selector % sci.size()]
            node.broadcast("announce-range", {
                "range": node.range_name,
                "cs": node.owner_cs_hex,
                "places": [f"extra-{serial}"],
            })
            serial += 1
        elif sci.size() > 1:  # leave/fail, keeping the overlay non-empty
            victim = sci.nodes()[selector % sci.size()]
            if op == "leave":
                sci.leave(victim.guid.hex)
            else:
                sci.fail(victim.guid.hex)
        net.run_until_idle()
    return sci


class TestBroadcastEquivalence:
    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_all_modes_replicate_identical_directories(self, ops):
        worlds = [run_world(ops, **mode) for mode in MODES]
        reference = worlds[0]
        # within each world every node holds the same directory...
        for world, mode in zip(worlds, MODES):
            directories = [dict(node.directory) for node in world.nodes()]
            for directory in directories[1:]:
                assert directory == directories[0], (
                    f"directory disagreement within mode {mode}")
        # ...and across worlds the membership and directory agree exactly
        for world, mode in zip(worlds[1:], MODES[1:]):
            assert ([n.guid for n in world.nodes()]
                    == [n.guid for n in reference.nodes()]), (
                f"membership diverged in mode {mode}")
            for ours, theirs in zip(world.nodes(), reference.nodes()):
                assert dict(ours.directory) == dict(theirs.directory), (
                    f"directory diverged in mode {mode} on {ours.range_name}")

    @given(operations)
    @settings(max_examples=25, deadline=None)
    def test_tree_leaf_sets_match_ground_truth_under_churn(self, ops):
        from repro.overlay.node import RoutingTable
        sci = run_world(ops)
        members = [node.guid for node in sci.nodes()]
        for node in sci.nodes():
            expected = RoutingTable(node.guid)
            set_leaves(expected, members)
            assert node.table._right == expected._right
            assert node.table._left == expected._left
