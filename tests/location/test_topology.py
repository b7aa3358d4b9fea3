"""Topology model: doors, access control, shortest paths."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import LocationError
from repro.location.building import livingstone_tower
from repro.location.topology import Door, Topology


@pytest.fixture
def floor():
    topo = Topology()
    topo.connect("a", "corridor", length=2.0)
    topo.connect("b", "corridor", length=2.0)
    topo.connect("corridor", "store", door_id="store-door", length=1.0)
    return topo


class TestDoors:
    def test_other_side(self):
        door = Door("d", "x", "y")
        assert door.other_side("x") == "y"
        assert door.other_side("y") == "x"
        with pytest.raises(LocationError):
            door.other_side("z")

    def test_public_door_allows_everyone(self):
        assert Door("d", "x", "y").allows("anyone")

    def test_lock_and_unlock(self):
        door = Door("d", "x", "y")
        door.lock({"staff"})
        assert door.allows("staff")
        assert not door.allows("student")
        door.unlock()
        assert door.allows("student")

    def test_duplicate_door_rejected(self, floor):
        with pytest.raises(LocationError):
            floor.add_door(Door("store-door", "a", "b"))

    def test_non_positive_length_rejected(self):
        topo = Topology()
        with pytest.raises(LocationError):
            topo.add_door(Door("d", "x", "y", length=0))

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_length_rejected(self, length):
        topo = Topology()
        topo.connect("x", "y", length=2.0)
        with pytest.raises(LocationError):
            topo.connect("x", "y", door_id="bad", length=length)
        assert [d.door_id for d in topo.doors()] == ["door:x--y"]
        assert topo.shortest_path("x", "y") == (["x", "y"], 2.0)

    def test_building_refuses_nan_door(self):
        building = livingstone_tower()
        with pytest.raises(LocationError):
            building.add_door("L10.01", "L10.02", door_id="nan-door", length=math.nan)
        path, cost = building.route("L10.01", "L10.02")
        assert path == ["L10.01", "corridor", "L10.02"]
        assert not math.isnan(cost)


class TestPaths:
    def test_shortest_path(self, floor):
        path, cost = floor.shortest_path("a", "b")
        assert path == ["a", "corridor", "b"]
        assert cost == pytest.approx(4.0)

    def test_trivial_path(self, floor):
        path, cost = floor.shortest_path("a", "a")
        assert path == ["a"]
        assert cost == 0.0

    def test_no_route_raises(self, floor):
        floor.add_place("island")
        with pytest.raises(LocationError):
            floor.shortest_path("a", "island")

    def test_distance_inf_when_unreachable(self, floor):
        floor.add_place("island")
        assert floor.distance("a", "island") == float("inf")

    def test_parallel_doors_cheapest_wins(self):
        topo = Topology()
        topo.add_door(Door("long", "x", "y", length=10.0))
        topo.add_door(Door("short", "x", "y", length=1.0))
        _, cost = topo.shortest_path("x", "y")
        assert cost == 1.0

    def test_path_doors_picks_traversed_doors(self, floor):
        path, _ = floor.shortest_path("a", "store")
        doors = floor.path_doors(path)
        assert [d.door_id for d in doors] == ["door:a--corridor", "store-door"]

    def test_path_doors_first_cheapest_accessible_door_wins(self):
        topo = Topology()
        topo.add_door(Door("long", "x", "y", length=3.0))
        topo.add_door(Door("short-locked", "x", "y", length=1.0, access={"staff"}))
        topo.add_door(Door("short", "x", "y", length=1.0))
        topo.add_door(Door("short-too", "x", "y", length=1.0))
        assert [d.door_id for d in topo.path_doors(["x", "y"])] == ["short-locked"]
        assert [d.door_id for d in topo.path_doors(["y", "x"], "guest")] == ["short"]
        with pytest.raises(LocationError):
            topo.path_doors(["x", "nowhere"])


def _grid():
    topo = Topology()
    for row in range(3):
        for col in range(3):
            if col < 2:
                topo.connect(f"g{row}{col}", f"g{row}{col + 1}")
            if row < 2:
                topo.connect(f"g{row}{col}", f"g{row + 1}{col}")
    return topo


def _diamond():
    topo = Topology()
    topo.connect("s", "a", length=1.5)
    topo.connect("s", "b", length=1.5)
    topo.connect("a", "t", length=1.5)
    topo.connect("b", "t", length=1.5)
    topo.connect("s", "c", length=1.0)
    topo.connect("c", "t", length=2.0)
    return topo


def _parallel():
    topo = Topology()
    topo.add_door(Door("long", "x", "y", length=3.0))
    topo.add_door(Door("short", "x", "y", length=1.0))
    topo.add_door(Door("short-too", "x", "y", length=1.0))
    topo.connect("y", "z", length=2.0)
    return topo


def _locked():
    topo = Topology()
    topo.add_door(Door("cheap", "x", "y", length=1.0, access={"staff"}))
    topo.add_door(Door("dear", "x", "y", length=4.0))
    topo.connect("y", "z", length=1.0)
    topo.connect("x", "w", length=2.5)
    topo.connect("w", "z", length=2.5)
    return topo


def _island():
    topo = Topology()
    topo.connect("x", "y")
    topo.add_place("island")
    return topo


def _int_length():
    topo = Topology()
    topo.connect("x", "y", length=2)
    return topo


BUILDERS = {"grid": _grid, "diamond": _diamond, "parallel": _parallel,
            "locked": _locked, "island": _island, "int_length": _int_length}

#: (topology, source, target, entity, path, cost, doors) as the networkx
#: 3.6.1 router (``nx.shortest_path(view, s, t, weight="weight")``, i.e. its
#: bidirectional Dijkstra) answered them; path None means no route.
#: Every row but the last four picks among equally short routes.
GOLDEN = [
    ("grid", "g00", "g22", None, ["g00", "g01", "g02", "g12", "g22"], 4.0,
     ["door:g00--g01", "door:g01--g02", "door:g02--g12", "door:g12--g22"]),
    ("grid", "g22", "g00", None, ["g22", "g12", "g02", "g01", "g00"], 4.0,
     ["door:g12--g22", "door:g02--g12", "door:g01--g02", "door:g00--g01"]),
    ("grid", "g02", "g20", None, ["g02", "g01", "g00", "g10", "g20"], 4.0,
     ["door:g01--g02", "door:g00--g01", "door:g00--g10", "door:g10--g20"]),
    ("grid", "g00", "g11", None, ["g00", "g01", "g11"], 2.0,
     ["door:g00--g01", "door:g01--g11"]),
    ("grid", "g10", "g12", None, ["g10", "g11", "g12"], 2.0,
     ["door:g10--g11", "door:g11--g12"]),
    ("diamond", "s", "t", None, ["s", "a", "t"], 3.0, ["door:s--a", "door:a--t"]),
    ("diamond", "t", "s", None, ["t", "a", "s"], 3.0, ["door:a--t", "door:s--a"]),
    ("diamond", "a", "b", None, ["a", "s", "b"], 3.0, ["door:s--a", "door:s--b"]),
    ("parallel", "x", "z", None, ["x", "y", "z"], 3.0, ["short", "door:y--z"]),
    ("parallel", "z", "x", None, ["z", "y", "x"], 3.0, ["door:y--z", "short"]),
    ("locked", "x", "z", "guest", ["x", "y", "z"], 5.0, ["dear", "door:y--z"]),
    ("locked", "z", "x", "guest", ["z", "y", "x"], 5.0, ["door:y--z", "dear"]),
    ("locked", "x", "z", None, ["x", "y", "z"], 2.0, ["cheap", "door:y--z"]),
    ("locked", "x", "z", "staff", ["x", "y", "z"], 2.0, ["cheap", "door:y--z"]),
    ("island", "x", "island", None, None, None, None),
    ("island", "island", "island", None, ["island"], 0.0, []),
    ("int_length", "x", "y", None, ["x", "y"], 2.0, ["door:x--y"]),
    ("int_length", "x", "x", None, ["x"], 0.0, []),
]


class TestRoutingRule:
    @pytest.mark.parametrize("name,source,target,entity,path,cost,doors", GOLDEN)
    def test_golden_route(self, name, source, target, entity, path, cost, doors):
        topo = BUILDERS[name]()
        if path is None:
            with pytest.raises(LocationError):
                topo.shortest_path(source, target, entity)
            return
        got_path, got_cost = topo.shortest_path(source, target, entity)
        assert got_path == path
        assert got_cost == cost and type(got_cost) is float
        assert [d.door_id for d in topo.path_doors(got_path, entity)] == doors


#: dyadic lengths (one an int), so every route cost is exact and ties are common
LENGTHS = [0.25, 0.5, 1.0, 1.5, 2, 3.0]
KEYS = ["k0", "k1"]
MAX_PLACES = 7

doors = st.lists(st.tuples(
    st.integers(0, MAX_PLACES - 1), st.integers(0, MAX_PLACES - 1),
    st.sampled_from(LENGTHS),
    st.one_of(st.none(), st.frozensets(st.sampled_from(KEYS)))),
    max_size=14)


def _brute_force_cost(topo, source, target, entity):
    """Minimum cost over every simple accessible path; None when there is none."""
    best = None
    stack = [(source, [source], 0.0)]
    while stack:
        place, path, cost = stack.pop()
        if place == target:
            best = cost if best is None else min(best, cost)
            continue
        for door in topo.doors_of(place):
            nxt = door.other_side(place)
            if nxt in path or (entity is not None and not door.allows(entity)):
                continue
            hop = topo.path_doors([place, nxt], entity)[0].length
            stack.append((nxt, path + [nxt], cost + hop))
    return best


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(st.integers(1, MAX_PLACES), doors, st.integers(0, MAX_PLACES - 1),
       st.integers(0, MAX_PLACES - 1), st.sampled_from([None, "k0", "k1", "k2"]))
def test_route_is_cheapest_accessible_walk(n, door_rows, source, target, entity):
    topo = Topology()
    for place in range(n):
        topo.add_place(f"p{place}")
    for index, (a, b, length, access) in enumerate(door_rows):
        if a < n and b < n:
            topo.add_door(Door(f"d{index}", f"p{a}", f"p{b}", length,
                               access=None if access is None else set(access)))
    source, target = f"p{source % n}", f"p{target % n}"
    best = _brute_force_cost(topo, source, target, entity)
    if best is None:
        with pytest.raises(LocationError):
            topo.shortest_path(source, target, entity)
        assert not topo.reachable(source, target, entity)
        return
    path, cost = topo.shortest_path(source, target, entity)
    assert cost == best
    assert path[0] == source and path[-1] == target
    assert len(set(path)) == len(path)
    walked = 0.0
    for door in topo.path_doors(path, entity):
        assert entity is None or door.allows(entity)
        walked += door.length
    assert walked == cost


class TestAccessControl:
    def test_locked_door_blocks_entity(self, floor):
        floor.door("store-door").lock({"facilities"})
        assert not floor.reachable("a", "store", entity_key="john")
        assert floor.reachable("a", "store", entity_key="facilities")

    def test_locked_door_forces_detour(self):
        topo = Topology()
        topo.add_door(Door("direct", "x", "y", length=1.0))
        topo.add_door(Door("via-1", "x", "z", length=5.0))
        topo.add_door(Door("via-2", "z", "y", length=5.0))
        topo.door("direct").lock({"vip"})
        _, cost_vip = topo.shortest_path("x", "y", entity_key="vip")
        _, cost_pleb = topo.shortest_path("x", "y", entity_key="pleb")
        assert cost_vip == 1.0
        assert cost_pleb == 10.0

    def test_parallel_doors_list_a_neighbour_once(self):
        topo = Topology()
        topo.add_door(Door("d1", "a", "b"))
        topo.add_door(Door("d2", "a", "b", access={"staff"}))
        topo.add_door(Door("d3", "a", "c"))
        assert topo.neighbours("a") == ["b", "c"]
        assert topo.neighbours("a", entity_key="staff") == ["b", "c"]
        topo.door("d1").lock({"vip"})
        assert topo.neighbours("a", entity_key="guest") == ["c"]

    def test_neighbours_respect_access(self, floor):
        floor.door("store-door").lock({"facilities"})
        assert "store" not in floor.neighbours("corridor", entity_key="john")
        assert "store" in floor.neighbours("corridor", entity_key="facilities")

    def test_no_entity_key_ignores_locks(self, floor):
        floor.door("store-door").lock({"facilities"})
        assert floor.reachable("a", "store")  # infrastructure view


class TestQueries:
    def test_unknown_place_raises(self, floor):
        with pytest.raises(LocationError):
            floor.shortest_path("a", "nowhere")

    def test_doors_of(self, floor):
        assert {d.door_id for d in floor.doors_of("corridor")} == {
            "door:a--corridor", "door:b--corridor", "store-door"}
