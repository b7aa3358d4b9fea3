"""Topological location model: places joined by doors.

Captures the "topological ... spatial relations" of the paper's future-work
item 4 and everything CAPA needs: doors connect rooms/corridors, doors can be
locked against particular entities (printer P3 "behind a locked door to which
John has no access"), and paths are shortest routes that respect access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import LocationError


@dataclass
class Door:
    """A traversable connection between two places.

    ``access`` is None for a public door, otherwise the set of entity keys
    allowed through. ``sensor_id`` names the door-sensor Context Entity
    mounted on it, if any (the Figure-3 doorSensorCEs).
    """

    door_id: str
    place_a: str
    place_b: str
    length: float = 1.0
    access: Optional[Set[object]] = None
    sensor_id: Optional[str] = None

    def other_side(self, place: str) -> str:
        if place == self.place_a:
            return self.place_b
        if place == self.place_b:
            return self.place_a
        raise LocationError(f"door {self.door_id} does not touch {place!r}")

    def allows(self, entity_key: object) -> bool:
        return self.access is None or entity_key in self.access

    def lock(self, allowed: Set[object]) -> None:
        """Restrict the door to ``allowed`` entity keys."""
        self.access = set(allowed)

    def unlock(self) -> None:
        self.access = None


class Topology:
    """An undirected multigraph of places and doors with path queries.

    Routing is the bidirectional Dijkstra search, with its tie-breaks kept
    exactly (DESIGN.md "Topological routing"): walks, door crossings,
    handoffs and Which-clause distances are all built on its routes, so a
    different choice among equally short routes changes them.
    """

    def __init__(self):
        # place -> neighbour -> door id -> length, every level in insertion
        # order; the two places of a door share one door dict
        self._adjacency: Dict[str, Dict[str, Dict[str, float]]] = {}
        self._doors: Dict[str, Door] = {}

    # -- construction ---------------------------------------------------------

    def add_place(self, name: str) -> str:
        self._adjacency.setdefault(name, {})
        return name

    def add_door(self, door: Door) -> Door:
        if door.door_id in self._doors:
            raise LocationError(f"duplicate door: {door.door_id!r}")
        if not (door.length > 0 and math.isfinite(door.length)):
            raise LocationError(f"door length must be positive and finite: {door.length}")
        self.add_place(door.place_a)
        self.add_place(door.place_b)
        self._doors[door.door_id] = door
        parallel = self._adjacency[door.place_a].setdefault(door.place_b, {})
        parallel[door.door_id] = door.length
        self._adjacency[door.place_b][door.place_a] = parallel
        return door

    def connect(self, place_a: str, place_b: str, door_id: Optional[str] = None,
                length: float = 1.0, sensor_id: Optional[str] = None) -> Door:
        """Shorthand for :meth:`add_door`."""
        door_id = door_id or f"door:{place_a}--{place_b}"
        return self.add_door(Door(door_id, place_a, place_b, length,
                                  sensor_id=sensor_id))

    # -- queries --------------------------------------------------------------

    def door(self, door_id: str) -> Door:
        try:
            return self._doors[door_id]
        except KeyError:
            raise LocationError(f"unknown door: {door_id!r}") from None

    def doors(self) -> List[Door]:
        return list(self._doors.values())

    def doors_of(self, place: str) -> List[Door]:
        self._require(place)
        return [door for door in self._doors.values()
                if place in (door.place_a, door.place_b)]

    def places(self) -> List[str]:
        return list(self._adjacency)

    def known(self, place: str) -> bool:
        return place in self._adjacency

    def neighbours(self, place: str, entity_key: object = None) -> List[str]:
        """Places reachable in one hop, respecting door access for ``entity_key``.

        Each place is listed once, in the order of its first door.
        """
        self._require(place)
        return [nxt for nxt, parallel in self._adjacency[place].items()
                if self._cheapest(parallel, entity_key) is not None]

    def shortest_path(self, source: str, target: str,
                      entity_key: object = None) -> Tuple[List[str], float]:
        """Cheapest place sequence from ``source`` to ``target``.

        Doors the entity may not pass are excluded. Raises
        :class:`LocationError` when no route exists.
        """
        self._require(source)
        self._require(target)
        path = self._route(source, target, entity_key)
        if path is None:
            raise LocationError(
                f"no accessible route from {source!r} to {target!r}")
        cost = 0.0
        for place, nxt in zip(path, path[1:]):
            cost += self._cheapest(self._adjacency[place][nxt], entity_key)
        return path, cost

    def distance(self, source: str, target: str, entity_key: object = None) -> float:
        """Shortest accessible route length; inf when unreachable."""
        try:
            _, cost = self.shortest_path(source, target, entity_key)
            return cost
        except LocationError:
            return float("inf")

    def reachable(self, source: str, target: str, entity_key: object = None) -> bool:
        return self.distance(source, target, entity_key) != float("inf")

    def path_doors(self, path: List[str], entity_key: object = None) -> List[Door]:
        """The cheapest accessible door for each consecutive place pair.

        Among equally cheap doors the first added wins.
        """
        chosen: List[Door] = []
        for place, nxt in zip(path, path[1:]):
            self._require(place)
            doors = (self._doors[door_id]
                     for door_id in self._adjacency[place].get(nxt, ()))
            candidates = [door for door in doors
                          if entity_key is None or door.allows(entity_key)]
            if not candidates:
                raise LocationError(f"no accessible door between {place!r} and {nxt!r}")
            chosen.append(min(candidates, key=lambda door: door.length))
        return chosen

    def _cheapest(self, parallel: Dict[str, float],
                  entity_key: object) -> Optional[float]:
        """Length of the cheapest door in ``parallel`` that ``entity_key``
        may pass (every door when it is None); None when all are locked."""
        if entity_key is None:
            return min(parallel.values())
        return min((length for door_id, length in parallel.items()
                    if self._doors[door_id].allows(entity_key)), default=None)

    def _route(self, source: str, target: str,
               entity_key: object) -> Optional[List[str]]:
        """Bidirectional Dijkstra from ``source`` to ``target``; None when
        no accessible route exists.

        The searches alternate, forward first. Each heap is ordered by
        (distance, push counter, place), the counter shared by both;
        neighbours are relaxed in the order of their first door, and a
        predecessor changes only on a strict improvement. The meeting place
        is the one that first gives a strictly shorter joined route, and
        the search stops when one place is settled in both directions.
        """
        if source == target:
            return [source]
        adjacency = self._adjacency
        settled: Tuple[Dict[str, float], Dict[str, float]] = ({}, {})
        seen: Tuple[Dict[str, float], Dict[str, float]] = ({source: 0}, {target: 0})
        preds: Tuple[Dict[str, Optional[str]], ...] = ({source: None}, {target: None})
        tick = count()
        fringe: Tuple[list, list] = ([(0, next(tick), source)], [(0, next(tick), target)])
        best: Optional[float] = None
        meet: Optional[str] = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, place = heappop(fringe[direction])
            done = settled[direction]
            if place in done:
                continue
            done[place] = dist
            if place in settled[1 - direction]:
                return self._join(preds, meet)
            here, there = seen[direction], seen[1 - direction]
            for nxt, parallel in adjacency[place].items():
                cost = self._cheapest(parallel, entity_key)
                if cost is None or nxt in done:
                    continue
                length = dist + cost
                if nxt not in here or length < here[nxt]:
                    here[nxt] = length
                    heappush(fringe[direction], (length, next(tick), nxt))
                    preds[direction][nxt] = place
                    if nxt in there:
                        joined = length + there[nxt]
                        if best is None or best > joined:
                            best, meet = joined, nxt
        return None

    @staticmethod
    def _join(preds, meet: str) -> List[str]:
        """The route through ``meet``: source half reversed, then target half."""
        path: List[str] = []
        place: Optional[str] = meet
        while place is not None:
            path.append(place)
            place = preds[0][place]
        path.reverse()
        place = preds[1][meet]
        while place is not None:
            path.append(place)
            place = preds[1][place]
        return path

    def _require(self, place: str) -> None:
        if place not in self._adjacency:
            raise LocationError(f"unknown place: {place!r}")

    def __repr__(self) -> str:
        return f"Topology(places={len(self._adjacency)}, doors={len(self._doors)})"
