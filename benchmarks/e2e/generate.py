"""Seeded inputs for the end-to-end benchmark.

Every input of a run — populations, subscription tables, query batches,
churn steps, the publish schedule, walks — is a pure function of
``(workload, seed, sizes)``. The result is a *plan*: a tree of plain dicts,
lists, strings and numbers, so two plans compare (and serialise) byte for
byte and the oracle can compute the expected outputs from it without
running SCI. Nothing here imports ``repro``: the program only ever receives
the generated inputs, and later changes to ``repro.apps.workload`` cannot
move the benchmark.

Plan shape (all keys always present)::

    building   {"floors", "rooms", "sensed_doors"}   synthetic F<f>.R<k> grid
    ranges     [{"name", "places", "hosts", "door_sensors"}]
    sensors    [{"name", "range", "host", "room", "floor", "type", "subject",
                 "device", "service", "accuracy", "rating"}]
    apps       [{"name", "host", "owner"}]            started in set-up
    people     [{"key", "room", "host"}]              host None = no device
    monitor    bool                                    boundary monitor + handoff
    table      [{"app", "filter"}]                    direct mediator subscriptions
    batches    [{"queries": [...], "churn": [...]}]   closed-loop query phase
    settle     sim-units to run between the query and the timeline phase
    timeline   [{"t", "op", ...}]                     open loop on the sim clock
    span       sim-units the timeline covers

Sizes are keyword arguments of each generator (the defaults are the
benchmark's sizes; the self-tests pass tiny ones) — there is no "quick" switch.
"""

from __future__ import annotations

import bisect
import json
import random
from typing import Any, Dict, List, Sequence

EVENT_TYPES = ("temperature", "network-signal", "identity", "printer-status")
REPRESENTATION = "reading"

#: one source never publishes twice within this many sim-units: it exceeds the
#: default latency model's jitter, so a source's events reach the mediator in
#: publish order and "per-source order" is a well-defined expectation
MIN_SOURCE_GAP = 2.0

Plan = Dict[str, Any]


# -- helpers -----------------------------------------------------------------

def _rng(workload: str, seed: int, family: str) -> random.Random:
    """One independent stream per input family, so resizing one family
    leaves the others' draws untouched."""
    return random.Random(f"{workload}/{seed}/{family}")


class Zipf:
    """Zipf(s) ranks over ``items`` in a seeded popularity order."""

    def __init__(self, items: Sequence[Any], rng: random.Random, s: float = 1.1):
        self.items = list(items)
        rng.shuffle(self.items)
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(len(self.items)):
            total += 1.0 / (rank + 1) ** s
            self._cumulative.append(total)

    def draw(self, rng: random.Random) -> Any:
        point = rng.random() * self._cumulative[-1]
        return self.items[bisect.bisect_left(self._cumulative, point)]

    def draw_where(self, rng: random.Random, accept, tries: int = 64) -> Any:
        """Rejection-sample; fall back to the most popular acceptable item."""
        for _ in range(tries):
            item = self.draw(rng)
            if accept(item):
                return item
        for item in self.items:
            if accept(item):
                return item
        raise ValueError("no acceptable item left to draw")


def room_name(floor: int, room: int) -> str:
    return f"F{floor}.R{room}"


def _type_filter(type_name: str) -> Dict[str, Any]:
    return {"op": "type", "type": type_name, "representation": None}


def _floor_filter(type_name: str, floor: int) -> Dict[str, Any]:
    """The look-alike template: ``And(type, floor == k)``."""
    return {"op": "and", "parts": [
        _type_filter(type_name),
        {"op": "attr", "key": "floor", "cmp": "==", "constant": floor}]}


def _residual_filter(rng: random.Random, floors: int) -> Dict[str, Any]:
    """A filter with no equality constraint the dispatch index can file."""
    shape = rng.randrange(3)
    a, b = rng.randrange(floors), rng.randrange(floors)
    if shape == 0:
        return {"op": "or", "parts": [
            {"op": "attr", "key": "floor", "cmp": "==", "constant": a},
            {"op": "attr", "key": "floor", "cmp": "==", "constant": b}]}
    if shape == 1:
        return {"op": "not", "inner":
                {"op": "attr", "key": "floor", "cmp": "<", "constant": max(a, 1)}}
    return {"op": "attr", "key": "floor", "cmp": ">=", "constant": floors - 1 - a % 2}


def _sensor(name: str, range_name: str, host: str, floor: int, room: str,
            type_name: str, subject: str, rng: random.Random,
            service: bool = False, backup: bool = False) -> Dict[str, Any]:
    # lower accuracy (metres) wins the resolver's ranking: a backup is always
    # worse than any primary, so the oracle knows which provider is chosen
    accuracy = rng.uniform(2.5, 5.0) if backup else rng.uniform(0.5, 2.0)
    return {
        "name": name, "range": range_name, "host": host,
        "room": room, "floor": floor,
        "type": type_name, "subject": subject,
        "device": f"{type_name}-dev", "service": service,
        "accuracy": round(accuracy, 6), "rating": round(rng.random(), 6),
    }


def _poisson_times(rng: random.Random, count: int, start: float,
                   end: float) -> List[float]:
    """A Poisson process on [start, end) conditioned on ``count`` arrivals."""
    return sorted(round(rng.uniform(start, end), 6) for _ in range(count))


def _publish_ops(rng: random.Random, times: Sequence[float], draw_sensor,
                 first_n: int = 0) -> List[Dict[str, Any]]:
    """Stamp each due time with a publisher honouring ``MIN_SOURCE_GAP``."""
    last: Dict[int, float] = {}
    ops = []
    for offset, due in enumerate(times):
        index = draw_sensor(
            rng, lambda i: due - last.get(i, -MIN_SOURCE_GAP) >= MIN_SOURCE_GAP)
        last[index] = due
        ops.append({"t": due, "op": "publish", "sensor": index,
                    "n": first_n + offset})
    return ops


def _assign_sources(times: Sequence[float], sources: List[int],
                    first_n: int = 0) -> List[Dict[str, Any]]:
    """Publish ops for a fixed multiset of sources: each due time takes the
    first remaining source that honours ``MIN_SOURCE_GAP``. How often each
    source publishes — and with it the delivery volume — is then the same
    for every seed; only the order is drawn. (Should only too-recent sources
    remain, the longest-silent of all sources steps in for this one time.)"""
    last: Dict[int, float] = {}
    remaining = list(sources)
    ops = []
    for offset, due in enumerate(times):
        for position, index in enumerate(remaining):
            if due - last.get(index, -MIN_SOURCE_GAP) >= MIN_SOURCE_GAP:
                break
        else:
            position = 0
            index = min(sorted(set(sources)),
                        key=lambda i: last.get(i, -MIN_SOURCE_GAP))
            if due - last.get(index, -MIN_SOURCE_GAP) < MIN_SOURCE_GAP:
                raise ValueError("publish schedule too dense for "
                                 "MIN_SOURCE_GAP")
        del remaining[position]
        last[index] = due
        ops.append({"t": due, "op": "publish", "sensor": index,
                    "n": first_n + offset})
    return ops


def _kind_schedule(rng: random.Random, count: int,
                   shares: Dict[str, float]) -> List[str]:
    """``count`` query kinds in exact proportion (largest remainders), in a
    drawn order: the mix is the same for every seed."""
    exact = {kind: count * share for kind, share in shares.items()}
    kinds = [kind for kind, amount in exact.items() for _ in range(int(amount))]
    leftovers = sorted(exact, key=lambda kind: (int(exact[kind]) - exact[kind],
                                                kind))
    kinds += leftovers[:count - len(kinds)]
    rng.shuffle(kinds)
    return kinds


def _each_once_plus(rng: random.Random, providers: Sequence[int],
                    everyone: Sequence[int], background: int) -> List[int]:
    """Sources for a publish phase: every provider somebody subscribed to
    publishes exactly once — so each subscription (and each repair) is
    checked by an event, and the subscribers' delivery volume is the number
    of subscriptions whatever the seed — plus ``background`` draws from the
    sources nobody subscribed to; shuffled together."""
    wanted = set(providers)
    silent = [index for index in everyone if index not in wanted]
    sources = list(providers) + [silent[rng.randrange(len(silent))]
                                 for _ in range(background)]
    rng.shuffle(sources)
    return sources


def _draw(rng: random.Random, population: Sequence[int], accept) -> int:
    """A uniform draw from ``population`` that ``accept`` lets through."""
    for _ in range(256):
        index = population[rng.randrange(len(population))]
        if accept(index):
            return index
    raise ValueError("nothing acceptable left to draw")


def _query(query_id: str, app: str, kind: str, **fields: Any) -> Dict[str, Any]:
    return dict({"id": query_id, "app": app, "kind": kind}, **fields)


def _plan(workload: str, seed: int, **parts: Any) -> Plan:
    plan: Plan = {
        "workload": workload, "seed": seed,
        "building": None, "ranges": [], "sensors": [], "apps": [],
        "people": [], "monitor": False, "table": [], "batches": [],
        "settle": 0.0, "timeline": [], "span": 0.0,
    }
    plan.update(parts)
    return plan


def _monitors(host: str) -> List[Dict[str, Any]]:
    """One type-level monitor app per event type (apps + table rows)."""
    return [{"name": f"mon-{type_name}", "host": host, "owner": None}
            for type_name in EVENT_TYPES]


def _monitor_rows() -> List[Dict[str, Any]]:
    return [{"app": f"mon-{type_name}", "filter": _type_filter(type_name)}
            for type_name in EVENT_TYPES]


# -- campus_steady -----------------------------------------------------------

def campus_steady(seed: int, sensors: int = 600, hosts: int = 40,
                  apps: int = 16, queries_per_app: int = 40,
                  per_batch: int = 2, publishes: int = 2000,
                  span: float = 40.0, floors: int = 4, rooms: int = 8,
                  trackers: int = 2) -> Plan:
    """One range; exact ``(type, subject)`` subscriptions; Poisson publishes."""
    name = "campus_steady"
    host_ids = [f"h{i}" for i in range(hosts)]
    pop = _rng(name, seed, "population")
    sensor_rows = []
    for i in range(sensors):
        floor = pop.randrange(floors)
        sensor_rows.append(_sensor(
            f"s{i}", "campus", host_ids[i % hosts], floor,
            room_name(floor, pop.randrange(rooms)),
            EVENT_TYPES[i % len(EVENT_TYPES)], f"subj-{i}", pop))
    app_rows = [{"name": f"app-{a}", "host": host_ids[(a * 7) % hosts],
                 "owner": None} for a in range(apps)]

    subs = _rng(name, seed, "subscriptions")
    popularity = Zipf(range(sensors), subs)
    tracked: Dict[int, int] = {}
    held: List[set] = [set() for _ in range(apps)]
    batches = []
    kinds = iter(_kind_schedule(subs, apps * queries_per_app,
                                {"subscribe": 0.9, "once": 0.1}))
    for b in range(queries_per_app // per_batch):
        queries = []
        for slot in range(apps * per_batch):
            a = slot % apps
            index = popularity.draw_where(
                subs, lambda i: i not in held[a] and tracked.get(i, 0) < trackers)
            held[a].add(index)
            tracked[index] = tracked.get(index, 0) + 1
            kind = next(kinds)
            queries.append(_query(f"q{b}-{slot}", f"app-{a}", kind, sensor=index))
        batches.append({"queries": queries, "churn": []})

    pubs = _rng(name, seed, "publishes")
    timeline = _publish_ops(pubs, _poisson_times(pubs, publishes, 0.0, span),
                            popularity.draw_where)
    return _plan(
        name, seed,
        building={"floors": floors, "rooms": rooms, "sensed_doors": False},
        ranges=[{"name": "campus", "places": ["tower"], "hosts": host_ids,
                 "door_sensors": False}],
        sensors=sensor_rows, apps=app_rows + _monitors(host_ids[0]),
        table=_monitor_rows(), batches=batches, timeline=timeline, span=span)


# -- lookalike_churn ---------------------------------------------------------

def lookalike_churn(seed: int, sensors: int = 256, hosts: int = 16,
                    apps: int = 16, floors: int = 16, rooms: int = 4,
                    subscriptions: int = 1000, residual_share: float = 0.01,
                    queries_per_app: int = 20, publishes: int = 384,
                    rotations: int = 96, epochs: int = 16,
                    epoch_len: float = 8.0, publish_window: float = 4.0,
                    rotate_at: float = 7.0) -> Plan:
    """Look-alike template subscriptions with subscribe/unsubscribe rotations.

    Time is cut into epochs: publishes fall in the first ``publish_window``
    units, the epoch's rotations all happen at ``rotate_at``, when every
    publish of the epoch has long reached the mediator — so which
    subscriptions see which event is exact, not a race against latency.
    """
    name = "lookalike_churn"
    host_ids = [f"h{i}" for i in range(hosts)]
    pop = _rng(name, seed, "population")
    sensor_rows = [
        _sensor(f"s{i}", "campus", host_ids[i % hosts], i % floors,
                room_name(i % floors, pop.randrange(rooms)),
                EVENT_TYPES[(i // floors) % len(EVENT_TYPES)], f"subj-{i}", pop)
        for i in range(sensors)]
    app_names = [f"app-{a}" for a in range(apps)]
    app_rows = [{"name": app, "host": host_ids[a % hosts], "owner": None}
                for a, app in enumerate(app_names)]

    subs = _rng(name, seed, "subscriptions")
    templates = Zipf([(type_name, floor) for type_name in EVENT_TYPES
                      for floor in range(floors)], subs)

    def draw_row(residual: bool) -> Dict[str, Any]:
        spec = (_residual_filter(subs, floors) if residual
                else _floor_filter(*templates.draw(subs)))
        return {"app": app_names[subs.randrange(apps)], "filter": spec}

    # exactly ``residual_share`` of the slots hold residual filters, before
    # and after every rotation (a slot keeps its kind when it is re-drawn)
    residual_slots = set(subs.sample(range(subscriptions),
                                     round(subscriptions * residual_share)))
    table = [draw_row(slot in residual_slots) for slot in range(subscriptions)]

    queries_rng = _rng(name, seed, "queries")
    held: List[set] = [set() for _ in range(apps)]
    batches = []
    kinds = iter(_kind_schedule(
        queries_rng, apps * queries_per_app,
        {"subscribe": 0.5, "profile_named": 0.25, "profiles_where": 0.25}))
    for b in range(queries_per_app):
        queries = []
        for a, app in enumerate(app_names):
            kind = next(kinds)
            query_id = f"q{b}-{a}"
            if kind == "subscribe":
                index = _draw(queries_rng, range(sensors),
                              lambda i: i not in held[a])
                held[a].add(index)
                queries.append(_query(query_id, app, "subscribe", sensor=index))
            elif kind == "profile_named":
                queries.append(_query(
                    query_id, app, "profile_named",
                    name=sensor_rows[queries_rng.randrange(sensors)]["name"]))
            else:
                target = sensor_rows[queries_rng.randrange(sensors)]
                queries.append(_query(query_id, app, "profiles_where",
                                      device=target["device"],
                                      room=target["room"]))
        batches.append({"queries": queries, "churn": []})

    pubs = _rng(name, seed, "publishes")
    rot = _rng(name, seed, "rotations")
    timeline: List[Dict[str, Any]] = []
    # every template is published to equally often (by one of its sensors),
    # so the delivery volume follows from the subscription table alone
    template_of = [(row["type"], row["floor"]) for row in sensor_rows]
    by_template: Dict[tuple, List[int]] = {}
    for index, template in enumerate(template_of):
        by_template.setdefault(template, []).append(index)
    sources = [members[pubs.randrange(len(members))]
               for _round in range(-(-publishes // len(by_template)))
               for members in by_template.values()][:publishes]
    pubs.shuffle(sources)
    published = 0
    for epoch in range(epochs):
        base = epoch * epoch_len
        count = publishes // epochs + (1 if epoch < publishes % epochs else 0)
        timeline += _assign_sources(
            _poisson_times(pubs, count, base, base + publish_window),
            sources[published:published + count], first_n=published)
        published += count
        count = rotations // epochs + (1 if epoch < rotations % epochs else 0)
        for _ in range(count):
            slot = rot.randrange(subscriptions)
            timeline.append(dict({"t": base + rotate_at, "op": "rotate",
                                  "slot": slot},
                                 **draw_row(slot in residual_slots)))
    return _plan(
        name, seed,
        building={"floors": floors, "rooms": rooms, "sensed_doors": False},
        ranges=[{"name": "campus", "places": ["tower"], "hosts": host_ids,
                 "door_sensors": False}],
        sensors=sensor_rows, apps=app_rows, table=table, batches=batches,
        timeline=timeline, span=epochs * epoch_len)


# -- query_storm -------------------------------------------------------------

def query_storm(seed: int, sensors: int = 800, hosts: int = 50,
                apps: int = 24, floors: int = 2, rooms: int = 8,
                people: int = 8, batches: int = 30, backups: int = 60,
                service_share: float = 0.2, publishes: int = 150,
                span: float = 20.0, expiry_wait: float = 40.0) -> Plan:
    """Registration storm, then mixed queries with churn between batches.

    Every churn victim is the primary provider of a subject that also has a
    (worse-ranked) backup, so each subject stays answerable and a stop or a
    crash followed by lease expiry must *repair* live configurations onto
    the backup. ``expiry_wait`` sim-units separate the query phase from the
    publishes, so every lease of a crashed CE has expired by then and the
    expected provider of each stream is unambiguous. In the publish phase
    every subscribed subject's provider publishes once, plus ``publishes``
    background events.
    """
    name = "query_storm"
    if backups < 2 * (batches - 1):
        raise ValueError("need two backed-up victims per churn step")
    host_ids = [f"h{i}" for i in range(hosts)]
    pop = _rng(name, seed, "population")
    primaries = sensors - backups
    sensor_rows = []
    for i in range(primaries):
        floor = pop.randrange(floors)
        sensor_rows.append(_sensor(
            f"s{i}", "campus", host_ids[i % hosts], floor,
            room_name(floor, pop.randrange(rooms)),
            EVENT_TYPES[i % len(EVENT_TYPES)], f"subj-{i}", pop))
    backed = pop.sample(range(primaries), backups)
    for offset, primary in enumerate(backed):
        i = primaries + offset
        twin = sensor_rows[primary]
        sensor_rows.append(_sensor(
            f"s{i}", "campus", host_ids[i % hosts], twin["floor"], twin["room"],
            twin["type"], twin["subject"], pop, backup=True))
    backed_set = set(backed)
    for i in range(primaries):
        if i not in backed_set and pop.random() < service_share:
            sensor_rows[i]["service"] = True
    app_names = [f"app-{a}" for a in range(apps)]
    app_rows = [{"name": app, "host": host_ids[(a * 3) % hosts], "owner": None}
                for a, app in enumerate(app_names)]
    people_rows = [{"key": f"p{i}", "room": room_name(pop.randrange(floors),
                                                      pop.randrange(rooms)),
                    "host": None} for i in range(people)]

    queries_rng = _rng(name, seed, "queries")
    churn_rng = _rng(name, seed, "churn")
    popularity = Zipf(range(primaries), queries_rng)
    held: List[set] = [set() for _ in range(apps)]
    tracked_people: List[set] = [set() for _ in range(apps)]
    churned: set = set()
    subscribed: set = set()
    #: late sensor index -> batch it was started after
    late: Dict[int, int] = {}
    services = [i for i in range(primaries) if sensor_rows[i]["service"]]
    batch_rows = []
    shares = {"subscribe": 0.35, "once": 0.10, "track": 0.10,
              "profile_named": 0.15, "profiles_where": 0.15, "advert": 0.15}
    if not services:
        shares["profiles_where"] += shares.pop("advert")
    kinds = iter(_kind_schedule(queries_rng, batches * apps, shares))
    for b in range(batches):
        queries = []
        for a, app in enumerate(app_names):
            kind = next(kinds)
            if kind == "track" and len(tracked_people[a]) == people:
                kind = "profiles_where"
            query_id = f"q{b}-{a}"
            if kind in ("subscribe", "once"):
                index = popularity.draw_where(
                    queries_rng, lambda i: i not in held[a])
                held[a].add(index)
                subscribed.add(index)
                queries.append(_query(query_id, app, kind, sensor=index))
            elif kind == "track":
                person = _draw(queries_rng, range(people),
                               lambda p: p not in tracked_people[a])
                tracked_people[a].add(person)
                queries.append(_query(query_id, app, "track",
                                      person=f"p{person}"))
            elif kind == "profile_named":
                settled = [i for i, started in late.items() if started <= b - 2]
                if settled and queries_rng.random() < 0.3:
                    index = settled[queries_rng.randrange(len(settled))]
                else:
                    index = _draw(
                        queries_rng, range(len(sensor_rows)),
                        lambda i: i not in churned and i not in late)
                queries.append(_query(query_id, app, "profile_named",
                                      name=sensor_rows[index]["name"]))
            elif kind == "profiles_where":
                target = sensor_rows[queries_rng.randrange(primaries)]
                queries.append(_query(query_id, app, "profiles_where",
                                      device=target["device"],
                                      room=target["room"]))
            else:
                target = sensor_rows[services[queries_rng.randrange(len(services))]]
                queries.append(_query(
                    query_id, app, "advert",
                    service=f"{target['type']}-service", room=target["room"],
                    min_rating=round(queries_rng.uniform(0.0, 0.5), 6)))
        churn = []
        if b < batches - 1:
            for op in ("stop", "crash"):
                # prefer victims that carry live subscriptions: those are the
                # ones whose departure has to be repaired
                candidates = [i for i in backed if i not in churned]
                loaded = [i for i in candidates if i in subscribed]
                pool = loaded or candidates
                victim = pool[churn_rng.randrange(len(pool))]
                churned.add(victim)
                churn.append({"op": op, "sensor": victim})
            i = len(sensor_rows)
            floor = churn_rng.randrange(floors)
            sensor_rows.append(dict(_sensor(
                f"late-{b}", "campus", host_ids[churn_rng.randrange(hosts)],
                floor, room_name(floor, churn_rng.randrange(rooms)),
                EVENT_TYPES[b % len(EVENT_TYPES)], f"late-subj-{b}", churn_rng),
                late=True))
            late[i] = b
            churn.append({"op": "start", "sensor": i})
        batch_rows.append({"queries": queries, "churn": churn})

    pubs = _rng(name, seed, "publishes")
    alive = [i for i in range(len(sensor_rows)) if i not in churned]
    # the provider of a subscribed subject is, after churn, the victim's
    # backup: repaired streams carry traffic
    providers = sorted(
        {(primaries + backed.index(i)) if i in churned else i
         for i in subscribed})
    sources = _each_once_plus(pubs, providers, alive, publishes)
    timeline = _assign_sources(
        _poisson_times(pubs, len(sources), 0.0, span), sources)
    return _plan(
        name, seed,
        building={"floors": floors, "rooms": rooms, "sensed_doors": True},
        ranges=[{"name": "campus", "places": ["tower"], "hosts": host_ids,
                 "door_sensors": True}],
        sensors=sensor_rows, apps=app_rows + _monitors(host_ids[0]),
        people=people_rows, table=_monitor_rows(), batches=batch_rows,
        settle=expiry_wait, timeline=timeline, span=span)


# -- range_federation --------------------------------------------------------

def range_federation(seed: int, floors: int = 8, rooms: int = 12,
                     apps: int = 24, walkers: int = 24, batches: int = 30,
                     batch: int = 24, churn_steps: int = 12,
                     publishes: int = 250, span: float = 60.0,
                     max_leg: int = 3, rejoin_settle: float = 8.0) -> Plan:
    """One range per room; cross-range queries, walkers, range churn.

    The lower half of the building is the mobility zone (walkers cross range
    boundaries there), the upper half the churn zone (odd rooms leave or fail
    and are re-created under a new range name), so handoffs and range
    re-creation never race each other. Query clients sit on even rooms,
    which never churn. After a range is re-created the simulation runs
    ``rejoin_settle`` units — announce tree plus re-registration — and the
    next queries avoid the two most recently churned rooms. In the publish
    phase every subscribed sensor publishes once, plus ``publishes``
    background events.
    """
    name = "range_federation"
    if floors < 2 or rooms < 2:
        raise ValueError("range_federation needs at least a 2x2 building")
    pop = _rng(name, seed, "population")
    range_rows, sensor_rows = [], []
    #: room -> indexes of its two sensors
    by_room: Dict[str, List[int]] = {}
    #: room -> its first range's row (a re-created range keeps places and hosts)
    first_range: Dict[str, Dict[str, Any]] = {}
    for f in range(floors):
        for k in range(rooms):
            range_name, host = f"r{f}-{k}", f"h{f}-{k}"
            range_rows.append({"name": range_name, "places": [room_name(f, k)],
                               "hosts": [host], "door_sensors": False})
            first_range[room_name(f, k)] = range_rows[-1]
            for slot in "ab":
                i = len(sensor_rows)
                type_name = EVENT_TYPES[i % len(EVENT_TYPES)]
                sensor_rows.append(_sensor(
                    f"s{f}-{k}-{slot}", range_name, host, f, room_name(f, k),
                    type_name, f"subj-{f}-{k}-{slot}", pop,
                    service=(slot == "a")))
                by_room.setdefault(room_name(f, k), []).append(i)
    mobility_floors = max(1, floors // 2)
    client_rooms = [(f, k) for f in range(floors) for k in range(0, rooms, 2)]
    pop.shuffle(client_rooms)
    app_rows = [{"name": f"app-{a}", "host": f"h{f}-{k}", "owner": None}
                for a, (f, k) in enumerate(client_rooms[:apps])]
    apps = len(app_rows)
    people_rows, walker_rows = [], []
    position: Dict[str, tuple] = {}
    for w in range(walkers):
        spot = (pop.randrange(mobility_floors), pop.randrange(rooms))
        key = f"w{w}"
        position[key] = spot
        people_rows.append({"key": key, "room": room_name(*spot),
                            "host": f"pda-{w}"})
        walker_rows.append({"name": f"walker-{w}", "host": f"pda-{w}",
                            "owner": key})

    queries_rng = _rng(name, seed, "queries")
    churn_rng = _rng(name, seed, "churn")
    all_rooms = [room_name(f, k) for f in range(floors) for k in range(rooms)]
    popularity = Zipf(all_rooms, queries_rng)
    churn_rooms = [room_name(f, k) for f in range(mobility_floors, floors)
                   for k in range(1, rooms, 2)]
    churn_rng.shuffle(churn_rooms)
    churn_set = set(churn_rooms[:churn_steps])
    churn_every = max(1, (batches - 1) // max(1, churn_steps))
    generation: Dict[str, int] = {}
    recent: List[str] = []
    held: List[set] = [set() for _ in range(apps)]
    batch_rows = []
    done_steps = 0
    subscribed: List[int] = []
    kinds = iter(_kind_schedule(
        queries_rng, batches * batch,
        {"profiles_where": 0.4, "advert": 0.3, "subscribe": 0.3}))
    for b in range(batches):
        queries = []
        for slot in range(batch):
            a = (b * batch + slot) % apps
            app = f"app-{a}"
            query_id = f"q{b}-{slot}"
            kind = next(kinds)
            if kind == "subscribe":
                # a subscription lives and dies with its range's server, so
                # subscriptions only target rooms whose range never churns
                room = popularity.draw_where(
                    queries_rng, lambda r: r not in churn_set and any(
                        i not in held[a] for i in by_room[r]))
                free = [i for i in by_room[room] if i not in held[a]]
                index = free[queries_rng.randrange(len(free))]
                held[a].add(index)
                subscribed.append(index)
                queries.append(_query(query_id, app, "subscribe",
                                      sensor=index, room=room))
                continue
            room = popularity.draw_where(queries_rng,
                                         lambda r: r not in recent[-2:])
            if kind == "profiles_where":
                target = sensor_rows[by_room[room][queries_rng.randrange(2)]]
                queries.append(_query(query_id, app, "profiles_where",
                                      device=target["device"], room=room))
            else:
                target = sensor_rows[by_room[room][0]]
                queries.append(_query(
                    query_id, app, "advert",
                    service=f"{target['type']}-service", room=room,
                    min_rating=0.0))
        churn = []
        if (b < batches - 1 and done_steps < min(churn_steps, len(churn_rooms))
                and b % churn_every == churn_every - 1):
            room = churn_rooms[done_steps]
            base = first_range[room]["name"]
            old = base if room not in generation else f"{base}.{generation[room]}"
            generation[room] = generation.get(room, 0) + 1
            churn.append({
                "op": "leave" if done_steps % 2 == 0 else "fail",
                "range": old,
                "new": dict(first_range[room],
                            name=f"{base}.{generation[room]}"),
                "settle": rejoin_settle})
            recent.append(room)
            done_steps += 1
        batch_rows.append({"queries": queries, "churn": churn})

    pubs = _rng(name, seed, "publishes")
    sources = _each_once_plus(pubs, sorted(set(subscribed)),
                              range(len(sensor_rows)), publishes)
    timeline = _assign_sources(
        _poisson_times(pubs, len(sources), 0.0, span), sources)
    walks = _rng(name, seed, "walks")
    # two legs per walker; a leg crosses at most ``max_leg`` rooms (each ten
    # metres wide, 1.4 m/s), so the second leg starts after the first ended
    # and ends before the span does
    leg_time = max_leg * 10.0 / 1.4 + 2.0
    for leg in range(2):
        for key in sorted(position):
            f, k = position[key]
            if k < max_leg and mobility_floors > 1 and walks.random() < 0.4:
                # take the stairs (rooms R0 are joined floor to floor)
                target = (f + 1 if f + 1 < mobility_floors else f - 1, 0)
            else:
                step = walks.randrange(1, max_leg + 1) * walks.choice((-1, 1))
                target = (f, min(rooms - 1, max(0, k + step)))
            position[key] = target
            start = leg * leg_time + walks.uniform(0.0, 1.0)
            if start + leg_time > span:
                raise ValueError("span too short for two walk legs")
            timeline.append({"t": round(start, 6), "op": "walk", "key": key,
                             "room": room_name(*target)})
    timeline.sort(key=lambda op: (op["t"], op["op"], op.get("n", 0),
                                  op.get("key", "")))
    return _plan(
        name, seed,
        building={"floors": floors, "rooms": rooms, "sensed_doors": False},
        ranges=range_rows, sensors=sensor_rows, apps=app_rows + walker_rows,
        people=people_rows, monitor=True, batches=batch_rows,
        timeline=timeline, span=span)


# -- registry ----------------------------------------------------------------

GENERATORS = {
    "campus_steady": campus_steady,
    "lookalike_churn": lookalike_churn,
    "query_storm": query_storm,
    "range_federation": range_federation,
}

def generate(workload: str, seed: int, **sizes: Any) -> Plan:
    """The plan for one workload; the generators' keyword defaults are the
    benchmark's sizes, chosen so that a warm-up plus five or more repeats fit
    the run length recorded in BENCHMARK.json on two cores."""
    try:
        generator = GENERATORS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(GENERATORS)}") from None
    return generator(seed, **sizes)


def plan_bytes(plan: Plan) -> bytes:
    """Canonical serialisation: equal plans give equal bytes."""
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()


def operations(plan: Plan) -> int:
    """Operations a run of this plan attempts (the failure denominator)."""
    return (len(plan["sensors"]) + len(plan["apps"]) + len(plan["table"])
            + sum(len(batch["queries"]) + len(batch["churn"])
                  for batch in plan["batches"])
            + len(plan["timeline"]))
