"""One repeat: build an SCI deployment from a plan and drive it through.

Only the public facade is used — ``SCI``/``SCIConfig``, ``create_range``,
``create_application``, ``ContextEntity``/``ContextAwareApplication``
subclasses, ``QueryBuilder``, ``cs.mediator.add_subscription``,
``repro.events.filters``, ``BuildingModel.add_*``, ``sci.scinet`` and
``sci.world`` — and no engine, index, scheduler or shard switch is ever
passed: each commit is measured on whatever its default path is.

Phases of a repeat, each timed on the host clock:

1. *build*     ``SCI()``, the building, every range, SCINET directory converged
2. *register*  every component started, simulation run until all registered;
               then the plan's direct subscription table
3. *queries*   closed loop: one batch in flight, next batch when every query
               of the last is acked (and answered, for request modes); the
               plan's churn steps run between batches
4. *timeline*  open loop on the simulated clock: each publish/rotation/walk
               happens at its due sim-time, however long the host takes
5. *audit*     verify every ledger chain, replay, compare with the live books

Set-up time is phases 1 and 2. Host times are *calibrated* seconds (see
``pacing``): between any two steps the pacer may time a reference slice, and
each phase's wall time is scaled by how fast those slices ran meanwhile.
"""

from __future__ import annotations

import gc
import resource
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro import SCI, SCIConfig
from repro.core.types import TypeSpec
from repro.entities.advertisement import Advertisement
from repro.entities.entity import ContextAwareApplication, ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.events.filters import filter_from_spec
from repro.ledger import replay
from repro.location.building import BuildingModel
from repro.location.geometry import Rect

from generate import REPRESENTATION, Plan, operations
from pacing import Pacer

#: sim-units a closed-loop batch (or the registration storm) may take
PATIENCE = 60.0
#: sim-step while waiting; well under one network hop
STEP = 0.25
#: sim-units after the last timeline operation, enough for the last
#: delivery's ack (three hops) and any hole a reassembler still holds
DRAIN = 12.0
TABLE_OWNER = "bench-table"


class SensorCE(ContextEntity):
    """A sensor that publishes what the schedule tells it to."""

    def __init__(self, guid, network, row: Dict[str, Any], index: int):
        self.row, self.index = row, index
        self.spec = TypeSpec(row["type"], REPRESENTATION, row["subject"])
        profile = Profile(
            entity_id=guid, name=row["name"], entity_class=EntityClass.DEVICE,
            outputs=[self.spec],
            attributes={"room": row["room"], "device": row["device"]},
            quality={"accuracy": row["accuracy"], "rating": row["rating"]})
        offers = ([Advertisement(f"{row['type']}-service", ["read"],
                                 {"room": row["room"]})]
                  if row["service"] else [])
        super().__init__(profile, row["host"], network, advertisements=offers)

    def emit(self, ordinal: int) -> None:
        self.publish(self.spec, ordinal,
                     attributes={"floor": self.row["floor"], "src": self.index})


class RecordingApp(ContextAwareApplication):
    """Keeps what the oracle needs: every event with its sim-latency, and
    the first answer to each query."""

    def __init__(self, profile, host_id, network):
        super().__init__(profile, host_id, network)
        #: (sub_id, sensor index, ordinal, stream key, sim latency)
        self.received: List[tuple] = []
        self.answers: Dict[str, Dict[str, Any]] = {}

    def on_event(self, event, sub_id) -> None:
        self.received.append((
            sub_id, event.attributes.get("src"), event.value,
            f"{event.type_name}|{event.subject}", self.now - event.timestamp))

    def on_query_result(self, query_id, payload) -> None:
        self.answers.setdefault(query_id, payload)

    def on_query_failed(self, query_id, error) -> None:
        """Failures are counted by the oracle, not logged."""


def build_building(spec: Dict[str, Any]) -> BuildingModel:
    """An ``F<f>.R<k>`` grid: rooms in a row per floor, stairs at R0."""
    building = BuildingModel("campus", "tower")
    sensed = spec["sensed_doors"]

    def door(room_a: str, room_b: str) -> None:
        door_id = f"door:{room_a}--{room_b}"
        building.add_door(room_a, room_b, door_id=door_id,
                          sensor_id=f"sensor:{door_id}" if sensed else None)

    for f in range(spec["floors"]):
        floor = building.add_floor(f"F{f}")
        for k in range(spec["rooms"]):
            building.add_room(f"F{f}.R{k}", Rect(k * 10, f * 10, 10, 10), floor)
        for k in range(spec["rooms"] - 1):
            door(f"F{f}.R{k}", f"F{f}.R{k + 1}")
        if f:
            door(f"F{f - 1}.R0", f"F{f}.R0")
    return building


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


class Deployment:
    """One freshly built SCI deployment executing one plan."""

    def __init__(self, plan: Plan, pacer: Optional[Pacer] = None):
        self.plan = plan
        self.pacer = pacer or Pacer()
        self.sci: Optional[SCI] = None
        self.sensors: Dict[int, SensorCE] = {}
        self.apps: Dict[str, RecordingApp] = {}
        #: mediator sub_id -> table instance (see oracle._table_expectations)
        self.instance_of: Dict[int, int] = {}
        self._slot_sub: List[Any] = []
        self._instances = 0
        #: phase -> calibrated seconds / raw wall seconds of its own work
        self.phase_s: Dict[str, float] = {}
        self.raw_s: Dict[str, float] = {}
        self.batch_ms: List[float] = []
        self.pending_peak = 0
        self.stuck_queries = 0
        self.audit_failures = 0
        self.verify_s = self.replay_s = self.gc_s = 0.0
        self.delivered_before_timeline = 0

    # -- phases ---------------------------------------------------------------

    def run(self) -> None:
        for phase in (self.build, self.register, self.queries, self.timeline,
                      self.audit):
            before = self.pacer.reading()
            phase()
            # the one full collection of this phase (run.py keeps the oldest
            # generation from collecting on its own): its cost is counted,
            # but not at a moment that depends on the seed's allocation count
            started = perf_counter()
            gc.collect()
            self.gc_s += perf_counter() - started
            name = phase.__name__
            self.phase_s[name], self.raw_s[name] = self.pacer.calibrated(
                before, self.pacer.reading())

    def build(self) -> None:
        plan = self.plan
        sci = self.sci = SCI(building=build_building(plan["building"]),
                             config=SCIConfig(seed=plan["seed"]))
        for row in plan["ranges"]:
            sci.create_range(row["name"], places=row["places"],
                             hosts=row["hosts"])
            self.pacer.tick()
        places = sum(len(row["places"]) for row in plan["ranges"])
        if len(plan["ranges"]) > 1:
            self._run_until(lambda: all(len(node.directory) >= places
                                        for node in sci.scinet.nodes()))
        for person in plan["people"]:
            sci.add_person(person["key"], room=person["room"],
                           device_host=person["host"])
        if plan["monitor"]:
            sci.start_boundary_monitor()

    def register(self) -> None:
        sci, plan = self.sci, self.plan
        for row in plan["ranges"]:
            if row["door_sensors"]:
                sci.add_door_sensors(row["name"])
        for index, row in enumerate(plan["sensors"]):
            if not row.get("late"):
                self._start_sensor(index)
                self.pacer.tick()
        for row in plan["apps"]:
            self.apps[row["name"]] = sci.create_application(
                row["name"], host=row["host"], app_class=RecordingApp,
                owner=row["owner"])
            self.pacer.tick()
        components = (list(self.sensors.values()) + list(self.apps.values())
                      + list(sci.door_sensors.values()))
        self._run_until(lambda: all(c.registered for c in components))
        for row in plan["table"]:
            self._slot_sub.append(self._subscribe(row))
            self.pacer.tick()

    def queries(self) -> None:
        marks = []
        for batch in self.plan["batches"]:
            before = self.pacer.reading()
            waiting = []
            for query in batch["queries"]:
                app = self.apps[query["app"]]
                app.submit_query(self._build_query(query))
                self.pacer.tick()
                waiting.append((app, query["id"],
                                query["kind"] in ("profile_named",
                                                  "profiles_where", "advert")))

            def settled() -> bool:
                waiting[:] = [(app, qid, answer) for app, qid, answer in waiting
                              if qid not in app.query_acks
                              or (answer and qid not in app.answers)]
                return not waiting

            self._run_until(settled)
            self.stuck_queries += len(waiting)
            marks.append((before, self.pacer.reading(), len(batch["queries"])))
            for step in batch["churn"]:
                self._churn(step)
                self.pacer.tick()
            self._note_pending()
        # a batch is short (a few slices): scale it by the machine's speed over
        # the five batches around it
        for i, (before, after, size) in enumerate(marks):
            around = (marks[max(0, i - 2)][0],
                      marks[min(len(marks) - 1, i + 2)][1])
            self.batch_ms.append(
                1000.0 * self.pacer.calibrated(before, after, around)[0]
                / max(1, size))
        self._advance(self.plan["settle"])
        self.delivered_before_timeline = sum(
            len(app.received) for app in self.apps.values())

    def timeline(self) -> None:
        sci = self.sci
        base = sci.now
        for op in self.plan["timeline"]:
            sci.run_until(base + op["t"])
            kind = op["op"]
            if kind == "publish":
                self.sensors[op["sensor"]].emit(op["n"])
            elif kind == "rotate":
                old = self._slot_sub[op["slot"]]
                self._mediator_of(old["app"]).remove_subscription(old["sub_id"])
                self._slot_sub[op["slot"]] = self._subscribe(op)
            elif kind == "walk":
                sci.walk(op["key"], op["room"])
            self._note_pending()
            self.pacer.tick()
        self._advance(base + self.plan["span"] + DRAIN - sci.now)

    def audit(self) -> None:
        """Every chain verifies and the replayed books equal the live ones."""
        tick = self.pacer.tick
        for server in self.sci.ranges.values():
            started = perf_counter()
            verified = sum(chain.verify() for chain in server.ledgers())
            self.verify_s += perf_counter() - started
            tick()
            started = perf_counter()
            entries = server.ledger_entries()
            tick()
            projected = replay.projection_snapshot(
                replay.ReplayProjector.from_entries(entries).state)
            tick()
            live = replay.live_snapshot(server)
            tick()
            same = (replay.snapshot_digest(projected)
                    == replay.snapshot_digest(live))
            self.replay_s += perf_counter() - started
            tick()
            if verified != len(entries) or not same:
                self.audit_failures += 1

    # -- steps ----------------------------------------------------------------

    def _run_until(self, done) -> None:
        deadline = self.sci.now + PATIENCE
        while not done() and self.sci.now < deadline:
            self.sci.run(STEP)
            self.pacer.tick()

    def _advance(self, duration: float) -> None:
        """Let ``duration`` sim-units pass, a unit at a time."""
        end = self.sci.now + duration
        while self.sci.now < end:
            self.sci.run(min(1.0, end - self.sci.now))
            self.pacer.tick()

    def _note_pending(self) -> None:
        pending = self.sci.scheduler.pending
        if pending > self.pending_peak:
            self.pending_peak = pending

    def _start_sensor(self, index: int) -> None:
        sensor = SensorCE(self.sci.guids.mint(), self.sci.network,
                          self.plan["sensors"][index], index)
        self.sensors[index] = sensor
        sensor.start()

    def _mediator_of(self, app_name: str):
        return self.sci.range(self.apps[app_name].range_name).mediator

    def _subscribe(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """One direct mediator subscription = one table instance."""
        subscription = self._mediator_of(row["app"]).add_subscription(
            self.apps[row["app"]].guid, filter_from_spec(row["filter"]),
            owner=TABLE_OWNER, replay_retained=False)
        self.instance_of[subscription.sub_id] = self._instances
        self._instances += 1
        return {"app": row["app"], "sub_id": subscription.sub_id}

    def _build_query(self, query: Dict[str, Any]):
        kind = query["kind"]
        builder = self.sci.query(query["app"]).with_id(query["id"])
        if kind in ("subscribe", "once"):
            row = self.plan["sensors"][query["sensor"]]
            mode = builder.subscribe if kind == "subscribe" else builder.once
            mode(row["type"], REPRESENTATION, subject=row["subject"])
        elif kind == "track":
            builder.subscribe("location", "topological", subject=query["person"])
        elif kind == "profile_named":
            builder.profile_of(query["name"])
        elif kind == "profiles_where":
            builder.profiles_of_type(query["device"])
        elif kind == "advert":
            builder.advertisement(query["service"]).which(
                f"quality(rating>={query['min_rating']}); best-quality(rating)")
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        if query.get("room") is not None:
            builder.where(f"within(room:{query['room']})")
        return builder.build()

    def _churn(self, step: Dict[str, Any]) -> None:
        sci, op = self.sci, step["op"]
        if op == "stop":
            self.sensors[step["sensor"]].stop()
        elif op == "crash":
            self.sensors[step["sensor"]].crash()
        elif op == "start":
            self._start_sensor(step["sensor"])
        elif op in ("leave", "fail"):
            node = next(node for node in sci.scinet.nodes()
                        if node.range_name == step["range"])
            (sci.scinet.leave if op == "leave" else sci.scinet.fail)(node.guid.hex)
            new = step["new"]
            server = sci.create_range(new["name"], places=new["places"],
                                      hosts=new["hosts"])
            for host in new["hosts"]:
                server.admit_host(host)
            self._advance(step["settle"])
        else:
            raise ValueError(f"unknown churn step {op!r}")

    # -- what came out --------------------------------------------------------

    def observed(self) -> Dict[str, Any]:
        """The run's outputs in the shape ``oracle.check`` compares."""
        table: Dict[int, List[tuple]] = {}
        streams: Dict[str, Dict[str, List[tuple]]] = {}
        acks: Dict[str, Dict[str, Any]] = {}
        results: Dict[str, Dict[str, Any]] = {}
        for name, app in self.apps.items():
            for sub_id, source, ordinal, key, _latency in app.received:
                instance = self.instance_of.get(sub_id)
                if instance is not None:
                    table.setdefault(instance, []).append((source, ordinal))
                else:
                    streams.setdefault(name, {}).setdefault(key, []).append(
                        (source, ordinal))
            for query_id, ack in app.query_acks.items():
                acks[query_id] = {"ok": ack.get("ok"), "status": ack.get("status")}
            for query_id, answer in app.answers.items():
                if answer.get("mode") == "profile":
                    results[query_id] = {
                        "ok": answer.get("ok"),
                        "names": [p["name"] for p in answer.get("profiles", [])]}
                elif answer.get("mode") == "advertisement":
                    results[query_id] = {
                        "ok": answer.get("ok"),
                        "selected": (answer.get("selected") or {}).get("name")}
        registered = {c.profile.name: (c.range_name if c.registered else None)
                      for c in list(self.sensors.values())
                      + list(self.apps.values())}
        return {"table": table, "streams": streams, "acks": acks,
                "results": results, "registered": registered}

    def sim_metrics(self) -> Dict[str, float]:
        """Exact functions of the seed: sim-latency and message counts."""
        latencies = sorted(latency for app in self.apps.values()
                           for *_rest, latency in app.received)
        return {
            "sim_delivery_p50": percentile(latencies, 0.50),
            "sim_delivery_p99": percentile(latencies, 0.99),
            "sim_messages_per_op": (self.sci.network.stats.delivered
                                    / operations(self.plan)),
            "deliveries": float(len(latencies)),
            "sim_end": self.sci.now,
        }

    def host_metrics(self) -> Dict[str, float]:
        plan, phase = self.plan, self.phase_s
        publishes = sum(1 for op in plan["timeline"] if op["op"] == "publish")
        queries = sum(len(batch["queries"]) for batch in plan["batches"])
        delivered = (sum(len(app.received) for app in self.apps.values())
                     - self.delivered_before_timeline)
        components = len(self.sensors) + len(self.apps) + len(
            self.sci.door_sensors)
        batches = sorted(self.batch_ms)
        return {
            "setup_s": phase["build"] + phase["register"],
            "registrations_per_s": components / phase["register"],
            "queries_per_s": queries / phase["queries"],
            "query_batch_ms_p50": percentile(batches, 0.50),
            "query_batch_ms_p90": percentile(batches, 0.90),
            "events_per_s": publishes / phase["timeline"],
            "deliveries_per_s": delivered / phase["timeline"],
            "audit_s": phase["audit"],
        }


def run_once(plan: Plan, pacer: Optional[Pacer] = None,
             recorder=None) -> Deployment:
    """A fresh deployment, garbage collected before the clock starts; a
    span recorder, when given, brackets the run as its root span."""
    gc.collect()
    deployment = Deployment(plan, pacer)
    if recorder is not None:
        recorder.begin()
    deployment.run()
    if recorder is not None:
        recorder.end()
    return deployment


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
