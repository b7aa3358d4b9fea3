"""Property-based overlay invariants: correctness for arbitrary memberships."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import GUID, GUID_BITS, GuidFactory
from repro.overlay.node import RoutingTable
from tests.overlay.reference_membership import set_leaves

guid_values = st.integers(min_value=0, max_value=(1 << GUID_BITS) - 1)


def build_tables(member_values):
    members = [GUID(v) for v in sorted(set(member_values))]
    tables = {}
    for owner in members:
        table = RoutingTable(owner)
        for other in members:
            table.add(other)
        set_leaves(table, members)
        tables[owner] = table
    return members, tables


def simulate_route(tables, members, start, key, max_hops=64):
    current = start
    for _ in range(max_hops):
        hop = tables[current].next_hop(key)
        if hop is None:
            return current
        current = hop
    return None  # did not terminate


class TestRoutingProperties:
    @given(st.lists(guid_values, min_size=2, max_size=40, unique=True),
           guid_values, st.data())
    @settings(max_examples=100, deadline=None)
    def test_routes_terminate_at_global_closest(self, member_values, key_value,
                                                data):
        members, tables = build_tables(member_values)
        key = GUID(key_value)
        start = members[data.draw(st.integers(0, len(members) - 1))]
        final = simulate_route(tables, members, start, key)
        assert final is not None, "routing must terminate"
        expected = min(members, key=lambda m: (key.distance(m), m.value))
        assert final == expected

    @given(st.lists(guid_values, min_size=2, max_size=30, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_member_key_routes_to_itself(self, member_values):
        members, tables = build_tables(member_values)
        for target in members[:5]:
            final = simulate_route(tables, members, members[0], target)
            assert final == target

    @given(st.lists(guid_values, min_size=3, max_size=30, unique=True),
           guid_values)
    @settings(max_examples=50, deadline=None)
    def test_removal_reroutes_correctly(self, member_values, key_value):
        members, tables = build_tables(member_values)
        key = GUID(key_value)
        doomed = min(members, key=lambda m: (key.distance(m), m.value))
        survivors = [m for m in members if m != doomed]
        for table in tables.values():
            table.remove(doomed)
            set_leaves(table, survivors)
        del tables[doomed]
        final = simulate_route(tables, survivors, survivors[0], key)
        expected = min(survivors, key=lambda m: (key.distance(m), m.value))
        assert final == expected
