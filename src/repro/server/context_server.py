"""The Context Server — the hub of a Range (Sections 3.1, 4.3 and 5).

"The Context Server (CS) is the most important component of a Range. It
manages the other components and provides the means of communicating with
other Ranges in the SCINET. It maintains a central store of entity
information as well as managing the context utilities operating within its
range. The CS provides the access point for Context Aware Applications to
interact with the infrastructure."

On construction the CS instantiates its six Context Utilities — Registrar,
Profile Manager, Event Mediator, Location Service, the Query Resolver (via
the Configuration Manager) and a Range Service per machine in its
jurisdiction (Figure 5) — and wires the callbacks between them.

Query lifecycle (Section 4.3 + the CAPA walk-through of Section 5):

* a ``query`` message arrives from a CAA (or forwarded by a peer CS);
* if the Where/When clauses reference places another range governs, the
  query is **forwarded** to that range's CS (looked up through the SCINET
  range directory);
* time-based When clauses are **scheduled**; ``enters(entity, place)``
  clauses are **parked** — the CS "stores it until its temporal constraints
  are satisfied" and "listens" for the entity entering the place. Both wait
  in one book, each with at most one timer, armed at the earlier of its
  trigger and its ``until``; the timer or a matching location fix releases
  the query, which then executes, or expires with a failed ``query-result``
  if its ``until`` has come;
* execution dispatches on mode: profile request, advertisement request
  (Which-based candidate selection), or event/one-time subscription
  (configuration build + instantiation through the Configuration Manager).
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import LocationError, QueryError, SCIError
from repro.core.ids import GUID, GuidFactory
from repro.core.types import TypeRegistry
from repro.composition.manager import Configuration, ConfigurationManager
from repro.composition.resolver import QueryResolver
from repro.composition.templates import TemplateRegistry
from repro.entities.entity import ContextEntity
from repro.entities.profile import EntityClass, Profile, provides_context
from repro.events.filters import TypeFilter
from repro.events.mediator import EventMediator
from repro.ledger.ledger import ContextLedger, LedgerEntry, merge_entries
from repro.ledger.replay import ProjectedState, ReplayProjector
from repro.ledger.timetravel import AsOfView, explain_query
from repro.location.building import BuildingModel
from repro.location.language import LocationExpr, parse_location
from repro.location.service import EntityFix, LocationService
from repro.net.message import Message
from repro.net.sim import Timer
from repro.net.transport import Network, Process
from repro.query.model import Query, QueryMode
from repro.query.selection import Candidate
from repro.server.profile_manager import ProfileManager
from repro.server.range import RangeDefinition
from repro.server.range_service import RangeService
from repro.server.registrar import RegistrationRecord, Registrar

logger = logging.getLogger(__name__)

#: a query waiting for its When: (query, subscriber hex, the trace context
#: captured when it started waiting, its timer or None)
Waiting = Tuple[Query, str, Optional[Dict[str, str]], Optional[Timer]]


class ContextServer(Process):
    """One range's central server and its bundled Context Utilities."""

    def __init__(
        self,
        guid: GUID,
        host_id: str,
        network: Network,
        definition: RangeDefinition,
        building: BuildingModel,
        registry: TypeRegistry,
        guid_factory: GuidFactory,
        templates: Optional[TemplateRegistry] = None,
        lease_duration: float = 30.0,
        max_repairs_per_config: Optional[int] = None,
    ):
        super().__init__(guid, host_id, network, name=f"cs:{definition.name}")
        self.definition = definition
        self.building = building
        self.registry = registry
        self.guids = guid_factory
        self.templates = templates or TemplateRegistry()

        # -- context ledger ---------------------------------------------------
        # one chain per range: registrar, profile manager, mediator and the
        # query lifecycle all append to it
        self.ledger = ContextLedger(f"cs:{definition.name}",
                                    metrics=network.obs.metrics,
                                    range_name=definition.name)
        self._ledger_replays_counter = network.obs.metrics.counter(
            "cs.ledger.replays")
        self._ledger_asof_counter = network.obs.metrics.counter(
            "cs.ledger.asof_reads")
        routed = network.obs.metrics.counter("cs.query.routed")
        #: routing outcome -> its series (the statuses accept_query returns)
        self._routed = {status: routed.series(range=definition.name,
                                              status=status)
                        for status in ("expired", "forwarded", "parked",
                                       "scheduled", "executed", "failed")}

        # -- Context Utilities (Section 3.1's core set) -----------------------
        self.mediator = EventMediator(self.guids.mint(), host_id, network,
                                      definition.name, ledger=self.ledger)
        self.registrar = Registrar(self.guids.mint(), host_id, network,
                                   definition.name,
                                   context_server=self.guid,
                                   event_mediator=self.mediator.guid,
                                   lease_duration=lease_duration,
                                   ledger=self.ledger)
        self.profiles = ProfileManager(self.guids.mint(), host_id, network,
                                       self.registrar, definition.name,
                                       ledger=self.ledger)
        self.location = LocationService(self.guids.mint(), host_id, network,
                                        building, definition.name)
        self.range_services: Dict[str, RangeService] = {}
        for machine in definition.hosts:
            network.ensure_host(machine)
            self.range_services[machine] = RangeService(
                self.guids.mint(), machine, network,
                definition.name, self.registrar.guid)

        resolver = QueryResolver(
            registry,
            live_profiles=self._resolver_profiles,
            templates=self.templates,
            bindings_of=lambda entity_hex: self.configurations.bindings_of(entity_hex),
            metrics=network.obs.metrics,
            range_name=definition.name,
        )
        self.resolver = resolver
        self.configurations = ConfigurationManager(
            network=network,
            host_id=host_id,
            mediator=self.mediator,
            resolver=resolver,
            templates=self.templates,
            guid_factory=self.guids,
            range_addresses=(self.registrar.guid, self.guid, self.mediator.guid),
            range_name=definition.name,
            on_spawned=self._record_spawned,
            on_config_dead=self._notify_config_dead,
            max_repairs_per_config=max_repairs_per_config,
        )

        # -- wiring ------------------------------------------------------------
        self.registrar.on_arrival = self._entity_arrived
        self.registrar.on_departure = self._entity_departed
        self.registrar.on_replacement = self._entity_replaced
        # the Location Service consumes every location and door-presence
        # event in the range ("each range monitors internal activity")
        self.mediator.add_subscription(self.location.guid,
                                       TypeFilter("location"),
                                       owner="location-service")
        self.mediator.add_subscription(self.location.guid,
                                       TypeFilter("presence"),
                                       owner="location-service")
        self.location.observers.append(self._on_location_fix)

        #: place -> peer CS hex; installed by the SCINET layer
        self.peer_lookup: Callable[[str], Optional[str]] = lambda place: None

        #: query id -> the parked and scheduled queries, in arrival order
        self._waiting: Dict[str, Waiting] = {}
        #: entity hex -> attributes its previous range held (handoff), kept
        #: until the entity is registered here
        self._carried: Dict[str, Dict[str, Any]] = {}
        self.queries_received = 0
        self.queries_executed = 0
        self.queries_forwarded = 0
        self.queries_parked = 0
        self.queries_failed = 0

    # ------------------------------------------------------------------ wiring

    def _resolver_profiles(self) -> List[Profile]:
        """Profiles of live CEs only (CAAs do not provide context)."""
        return [record.profile for record in self.registrar.records()
                if provides_context(record.kind)]

    def _record_spawned(self, entity: ContextEntity) -> None:
        """A manager-spawned CE joins the range's books (no lease)."""
        record = RegistrationRecord(
            profile=entity.profile,
            kind="infrastructure",
            advertisements=list(entity.advertisements),
            host_id=entity.host_id,
            registered_at=self.now,
            lease_expiry=None,
        )
        self.registrar.register_record(record)

    def _entity_arrived(self, record: RegistrationRecord) -> None:
        # the registrar's hooks are the provider index's only write path
        if provides_context(record.kind):
            self.resolver.note_profile_added(record.profile)
        self._admit(record)

    def _entity_replaced(self, previous: RegistrationRecord,
                         record: RegistrationRecord) -> None:
        """A registered component registered again: swap its books."""
        self.resolver.note_profile_replaced(
            previous.entity_hex,
            record.profile if provides_context(record.kind) else None)
        if previous.profile.name != record.profile.name:
            self.location.forget(previous.profile.name)
        self._admit(record)

    def _admit(self, record: RegistrationRecord) -> None:
        home = record.profile.attributes.get("room")
        if home and record.profile.entity_class != EntityClass.SOFTWARE:
            try:
                self.location.update(record.profile.name, room=home)
            except LocationError:
                pass
        self._apply_carried(record)
        logger.debug("%s: %s arrived", self.name, record.profile.name)

    def carry_attributes(self, entity_hex: str,
                         attributes: Dict[str, Any]) -> None:
        """Server-side attributes a component's previous range held
        (handoff). They are applied when the component is registered here:
        at once if it already is, else at its arrival or re-registration.
        One entry per entity: a later handoff replaces an earlier one."""
        self._carried[entity_hex] = attributes
        record = self.registrar.record(entity_hex)
        if record is not None:
            self._apply_carried(record)

    def _apply_carried(self, record: RegistrationRecord) -> None:
        attributes = self._carried.pop(record.entity_hex, None)
        if attributes is None:
            return
        # fresh values win; the rest goes through the Profile Manager so the
        # ledger and the What index see it
        carried = {key: value for key, value in attributes.items()
                   if key not in record.profile.attributes}
        if carried:
            self.profiles.update_attributes(record.entity_hex, carried)

    def _entity_departed(self, record: RegistrationRecord, reason: str) -> None:
        entity_hex = record.entity_hex
        self.resolver.note_profile_removed(entity_hex)
        self.location.forget(record.profile.name)
        self.mediator.remove_subscriber(record.profile.entity_id)
        affected = self.configurations.handle_entity_departure(entity_hex)
        if affected:
            logger.info("%s: departure of %s affected %d configuration(s)",
                        self.name, record.profile.name, len(affected))

    def _notify_config_dead(self, config: Configuration, reason: str) -> None:
        for delivery in config.deliveries:
            self.send(GUID.from_hex(delivery.subscriber_hex), "query-result", {
                "query_id": delivery.query_id,
                "ok": False,
                "error": f"configuration failed and is unrepairable: {reason}",
            })

    # ---------------------------------------------------------------- messages

    def _handle_query(self, message: Message) -> None:
        """Route a query and ack it to its sender. A peer's forward names
        the subscriber instead: the forwarding server has acked it already,
        so nothing is acked here and an ``expired`` refusal goes to the
        subscriber as a failed ``query-result`` (a ``failed`` one already
        does)."""
        self.queries_received += 1
        query = message.fields["query"]
        forwarded_for = message.fields.get("subscriber")
        subscriber_hex = (forwarded_for or message.sender).hex
        # A query message is always worth a span: child of the CAA's submit
        # span when one is in flight, a fresh root otherwise.
        with self.network.obs.tracer.span(
                "cs.query", range=self.definition.name,
                query=query.query_id, mode=query.mode.value) as span:
            status, error = self.accept_query(query, subscriber_hex)
            if span is not None:
                span.set(status=status, ok=error is None)
            if forwarded_for is None:
                self.reply(message, "query-ack", {
                    "ok": error is None,
                    "query_id": query.query_id,
                    "status": status,
                    **({"error": error} if error else {}),
                })
            elif status == "expired":
                self._send_failure(query, subscriber_hex, error)

    def _handle_cancel_query(self, message: Message) -> None:
        query_id = message.fields["query_id"]
        waiting = self._waiting.pop(query_id, None)
        if waiting is not None:
            query, _, _, timer = waiting
            if timer is not None:
                timer.cancel()
            self._log_query(query, "cancelled")
        self.configurations.cancel_query(query_id)

    # ----------------------------------------------------------- query routing

    def accept_query(self, query: Query, subscriber_hex: str):
        """Route one query: forward, park, schedule or execute.

        Returns ``(status, error)`` with error None on success. The decision
        is one ``query`` ledger entry whose ``event`` is the status.
        """
        _require_id(query)
        routing = {"when": str(query.when), "subscriber": subscriber_hex}
        status, error = self._route_query(query, subscriber_hex, routing)
        self._routed[status].inc()
        return status, error

    def _route_query(self, query: Query, subscriber_hex: str,
                     routing: Dict[str, str]):
        if query.when.expired(self.now):
            self.queries_failed += 1
            error = "query expired before execution"
            self._log_query(query, "expired", error=error, **routing)
            return "expired", error

        foreign_place = self._foreign_place(query)
        if foreign_place is not None:
            peer_hex = self.peer_lookup(foreign_place)
            if peer_hex is not None and peer_hex != self.guid.hex:
                self.send(GUID.from_hex(peer_hex), "query", {
                    "query": query.to_wire(),
                    "subscriber": subscriber_hex,
                })
                self.queries_forwarded += 1
                logger.info("%s forwarded %s (place %s)", self.name,
                            query.query_id, foreign_place)
                self._log_query(query, "forwarded", **routing)
                return "forwarded", None
            # No peer governs it; fall through and try locally.

        when = query.when
        trigger = when.trigger_time(self.now)
        if when.kind == "enters" or trigger > self.now:
            return self._wait(query, subscriber_hex, trigger, routing)
        error = self.execute_query(query, subscriber_hex, **routing)
        return ("executed" if error is None else "failed"), error

    def _wait(self, query: Query, subscriber_hex: str,
              trigger: Optional[float], routing: Dict[str, str]):
        """Book a parked or scheduled query and arm its one timer, at the
        earlier of its trigger and its ``until`` (none for an ``enters``
        query that never expires)."""
        if query.query_id in self._waiting:
            # the book holds one query per id: a second would be released
            # by the first one's timer
            self.queries_failed += 1
            error = f"query {query.query_id} is already waiting"
            self._send_failure(query, subscriber_hex, error)
            self._log_query(query, "failed", error=error, **routing)
            return "failed", error
        deadline = min((time for time in (trigger, query.when.expires)
                        if time is not None), default=None)
        timer = (None if deadline is None else
                 self.scheduler.schedule_at(deadline, self._release,
                                            query.query_id))
        self._waiting[query.query_id] = (
            query, subscriber_hex,
            self.network.obs.tracer.current_context(), timer)
        if trigger is not None:
            self._log_query(query, "scheduled", **routing)
            return "scheduled", None
        self.queries_parked += 1
        logger.info("%s parked %s until %s", self.name,
                    query.query_id, query.when)
        self._log_query(query, "parked", **routing)
        return "parked", None

    def _release(self, query_id: str) -> None:
        """A waiting query's timer fired or its entry fix came: it leaves
        the book, then expires or executes under its captured trace."""
        query, subscriber_hex, trace_ctx, timer = self._waiting.pop(query_id)
        if timer is not None:
            timer.cancel()
        # inclusive boundary: a trigger landing exactly on the expiry
        # instant never executes (see WhenClause.expired)
        if query.when.expired(self.now):
            self.queries_failed += 1
            self._log_query(query, "expired")
            self._send_failure(query, subscriber_hex,
                               "query expired while waiting")
            return
        with self.network.obs.tracer.activate(trace_ctx):
            self.execute_query(query, subscriber_hex)

    def _foreign_place(self, query: Query) -> Optional[str]:
        """A concrete place this query hinges on that we do not govern."""
        places: List[str] = []
        if query.when.kind == "enters" and query.when.place:
            places.append(query.when.place)
        places.extend(_places_in(query.where))
        for place in places:
            if (self.building.hierarchy.known(place)
                    and not self.definition.governs_place(self.building, place)):
                return place
        return None

    def _on_location_fix(self, fix: EntityFix, previous_room: Optional[str]) -> None:
        """Release the parked queries an entity entering a room triggers."""
        if fix.room == previous_room:
            return
        triggered = [query_id for query_id, (query, *_) in self._waiting.items()
                     if query.when.matches_entry(fix.entity_key, fix.room)]
        for query_id in triggered:
            # An entry landing on the expiry instant rivals the query's own
            # timer at the same sim-time; which runs first is the
            # scheduler's tie rule, not the model's. With inclusive expiry
            # both release it as expired, so the order cannot matter.
            logger.info("%s: parked query %s triggered by %s entering %s",
                        self.name, query_id, fix.entity_key, fix.room)
            self._release(query_id)

    # --------------------------------------------------------------- execution

    def execute_query(self, query: Query, subscriber_hex: str,
                      **routing: str) -> Optional[str]:
        """Execute one query now; returns an error string or None. The outcome
        is one ledger entry, carrying ``routing`` when executed as routed."""
        _require_id(query)
        with self.network.obs.tracer.span_if_active(
                "cs.execute", range=self.definition.name,
                query=query.query_id, mode=query.mode.value) as span:
            error = self._execute(query, subscriber_hex, routing)
            if span is not None:
                span.set(ok=error is None)
        return error

    def _execute(self, query: Query, subscriber_hex: str,
                 routing: Dict[str, str]) -> Optional[str]:
        try:
            if query.mode == QueryMode.PROFILE:
                bound = self._execute_profile(query, subscriber_hex)
            elif query.mode == QueryMode.ADVERTISEMENT:
                bound = self._execute_advertisement(query, subscriber_hex)
            else:
                bound = self._execute_subscription(query, subscriber_hex)
        except SCIError as exc:
            self.queries_failed += 1
            self._send_failure(query, subscriber_hex, str(exc))
            self._log_query(query, "failed", error=str(exc), **routing)
            return str(exc)
        self.queries_executed += 1
        self._log_query(query, "executed", bound=bound, **routing)
        return None

    def _send_result(self, query_id: str, subscriber_hex: str,
                     result: Dict[str, Any]) -> None:
        """Send a query-result under a ``cs.deliver`` span."""
        with self.network.obs.tracer.span_if_active(
                "cs.deliver", range=self.definition.name,
                query=query_id, ok=bool(result.get("ok"))):
            self.send(GUID.from_hex(subscriber_hex), "query-result", result)

    def _send_failure(self, query: Query, subscriber_hex: str, error: str) -> None:
        self._send_result(query.query_id, subscriber_hex, {
            "query_id": query.query_id, "ok": False, "error": error,
        })

    # -- profile mode -------------------------------------------------------------

    def _execute_profile(self, query: Query,
                         subscriber_hex: str) -> List[str]:
        matches = self._matching_records(query)
        self._send_result(query.query_id, subscriber_hex, {
            "query_id": query.query_id,
            "ok": True,
            "mode": "profile",
            "profiles": [record.profile.to_wire() for record in matches],
        })
        return [record.entity_hex for record in matches]

    def _matching_records(self, query: Query) -> List[RegistrationRecord]:
        where_rooms = self._where_rooms(query)
        matches = []
        for record in self.registrar.matching(query.what):  # in result order
            if where_rooms is not None:
                room = self._room_of(record)
                if room is not None and room not in where_rooms:
                    continue
            matches.append(record)
        return matches

    def _where_rooms(self, query: Query) -> Optional[Set[str]]:
        if query.where.is_constraint_free:
            return None
        return set(self.location.resolve_rooms(query.where, query.owner_id))

    def _room_of(self, record: RegistrationRecord) -> Optional[str]:
        room = record.profile.attributes.get("room")
        if room is not None:
            return room
        fix = self.location.locate(record.profile.name)
        return fix.room if fix else None

    # -- advertisement mode -----------------------------------------------------------

    def _execute_advertisement(self, query: Query,
                               subscriber_hex: str) -> List[str]:
        candidates = self._build_candidates(query)
        chosen = query.which.select(candidates)
        result: Dict[str, Any] = {
            "query_id": query.query_id,
            "ok": chosen is not None,
            "mode": "advertisement",
            # the full candidate view (including filtered-out entities, with
            # the reasons visible in their fields) — CAPA's UI can explain
            # "P3 behind a locked door" only if it sees P3
            "candidates": [_candidate_to_wire(candidate)
                           for candidate in candidates],
        }
        if chosen is None:
            result["error"] = "no candidate satisfies the Which clause"
            self.queries_failed += 1
        else:
            result["selected"] = _candidate_to_wire(chosen)
        self._send_result(query.query_id, subscriber_hex, result)
        return [chosen.entity_id] if chosen is not None else []

    def _build_candidates(self, query: Query) -> List[Candidate]:
        where_rooms = self._where_rooms(query)
        reference_room = self._reference_room(query)
        candidates = []
        for record in self.registrar.matching(query.what):  # in result order
            if not record.advertisements:
                continue
            room = self._room_of(record)
            if where_rooms is not None and room is not None and room not in where_rooms:
                continue
            available, queue_length = self._availability_of(record)
            distance, reachable = self._distance_to(reference_room, room,
                                                    query.owner_id)
            candidates.append(Candidate(
                entity_id=record.entity_hex,
                name=record.profile.name,
                room=room,
                distance=distance,
                reachable=reachable,
                available=available,
                queue_length=queue_length,
                quality=dict(record.profile.quality),
                payload={"advertisements": [ad.to_wire()
                                            for ad in record.advertisements]},
            ))
        return candidates

    def _reference_room(self, query: Query) -> Optional[str]:
        expr_text = query.which.location_argument
        if expr_text is None:
            return None
        try:
            expr = parse_location(expr_text)
            point = self.location.resolve_point(expr, query.owner_id)
            return self.building.nearest_room(point)
        except LocationError as exc:
            logger.warning("%s cannot resolve Which reference %r: %s",
                           self.name, expr_text, exc)
            return None

    def _availability_of(self, record: RegistrationRecord):
        """Live availability from the entity's retained status event; a
        status whose ``queue_length`` is not a non-negative int counts as
        no status."""
        event = self.mediator.retained_event("printer-status", "record",
                                             record.profile.name)
        if event is not None and isinstance(event.value, dict):
            queue_length = event.value.get("queue_length", 0)
            if type(queue_length) is int and queue_length >= 0:
                return event.value.get("state", "idle") == "idle", queue_length
            logger.info("%s: ignoring %s's status with queue_length %r",
                        self.name, record.profile.name, queue_length)
        return bool(record.profile.attributes.get("available", True)), 0

    def _distance_to(self, reference_room: Optional[str], room: Optional[str],
                     owner_id: str):
        """(walking distance, reachable) honouring the owner's door access."""
        if room is None:
            return float("inf"), True
        if reference_room is None:
            # No distance reference; reachability is all we can judge, from
            # any governed room (conservatively: from the first).
            return float("inf"), True
        distance = self.building.walking_distance(reference_room, room,
                                                  entity_key=owner_id)
        return distance, distance != float("inf")

    # -- subscription modes ----------------------------------------------------------------

    def _execute_subscription(self, query: Query,
                              subscriber_hex: str) -> List[str]:
        if query.what.kind != "pattern":
            raise QueryError(
                f"{query.mode.value} queries need a pattern What clause, "
                f"got {query.what}")
        wanted = query.what.pattern
        predicate = self._where_predicate(query)
        config = self.configurations.deliver(
            wanted,
            subscriber_hex=subscriber_hex,
            query_id=query.query_id,
            one_time=(query.mode == QueryMode.ONE_TIME),
            provider_predicate=predicate,
        )
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s: %s -> %s (depth %d, %d nodes)", self.name,
                        query.query_id, config.config_id,
                        config.plan.depth(), config.plan.node_count())
        return sorted(config.node_guids.values())

    def _where_predicate(self, query: Query):
        """Provider restrictions from Where plus any QoC contracts.

        A subscription's ``quality(attr<=x)`` criteria (future-work item 2)
        constrain which *providers* may enter the configuration: a contract
        on accuracy keeps the coarse W-LAN source out of a chain that
        promises 2-metre fixes. Contracts are checked against each
        provider's declared output quality.
        """
        where_rooms = self._where_rooms(query)
        contracts = query.which.quality_contracts()
        if where_rooms is None and not contracts:
            return None

        def predicate(profile: Profile) -> bool:
            if where_rooms is not None:
                room = profile.attributes.get("room")
                if room is not None and room not in where_rooms:
                    return False
            if contracts:
                # only data-producing profiles carry output quality;
                # processing templates (no declared quality) pass through
                # and the contract binds at the sensor level beneath them
                quality = dict(profile.quality)
                for output in profile.outputs:
                    quality.update(output.quality_map)
                if quality and not all(contract.quality_satisfied(quality)
                                       for contract in contracts):
                    return False
            return True

        return predicate

    # ------------------------------------------------------------------- misc

    def admit_host(self, host_id: str) -> int:
        """A mobile machine entered the range: offer registration to its
        components (Section 5: 'The network base station in the lift lobby
        detects Bob's PDA which is then registered with the infrastructure')."""
        service = self.range_services.get(host_id)
        if service is None:
            self.network.ensure_host(host_id)
            service = RangeService(self.guids.mint(), host_id, self.network,
                                   self.definition.name, self.registrar.guid)
            self.range_services[host_id] = service
        else:
            service.enabled = True  # back after retire_host: same daemon
        return service.offer_to_host()

    def retire_host(self, host_id: str) -> None:
        """A mobile machine left the range: the daemon :meth:`admit_host`
        put there is switched off (the static jurisdiction keeps its own)."""
        if host_id not in self.definition.hosts and host_id in self.range_services:
            self.range_services[host_id].enabled = False

    def expel_entity(self, entity_hex: str, reason: str = "left-range") -> bool:
        """Deregister an entity that physically left the range."""
        return self.registrar.remove(entity_hex, reason)

    def parked_queries(self) -> List[Query]:
        """The ``enters`` queries waiting for their entry, in arrival order."""
        return [query for query, *_ in self._waiting.values()
                if query.when.kind == "enters"]

    # ---------------------------------------------------------------- ledger

    def _log_query(self, query: Query, event: str, **fields) -> None:
        """One query-lifecycle entry on the range's chain: ``event`` is a
        routing outcome or how a parked or scheduled query resolved."""
        self.ledger.append(self.now, "query", {
            "query_id": query.query_id, "event": event,
            "mode": query.mode.value, **fields})

    def ledgers(self) -> List[ContextLedger]:
        """This range's ledger chain, as a list."""
        return [self.ledger]

    def ledger_entries(self, upto: Optional[float] = None) -> List[LedgerEntry]:
        """The range's entry stream (time <= ``upto`` if given)."""
        return merge_entries(self.ledgers(), upto)

    def ledger_projection(self, upto: Optional[float] = None) -> ProjectedState:
        """Rebuild the range's books from the ledger prefix up to ``upto``."""
        self._ledger_replays_counter.inc(range=self.definition.name)
        return ReplayProjector.from_entries(self.ledger_entries(upto)).state

    def as_of(self, time: float) -> AsOfView:
        """A historical read path: the range's books as they stood at T."""
        self._ledger_asof_counter.inc(range=self.definition.name)
        projector = ReplayProjector.from_entries(self.ledger_entries(time))
        return AsOfView(projector.state, self.registry, time)

    def explain(self, query_id: str) -> Optional[Dict[str, Any]]:
        """The audit trail of one query as hash-stable entry references."""
        return explain_query(self.ledger_entries(), query_id)

    def shutdown(self) -> None:
        """Leave the network: every parked or scheduled query is answered
        first, with a failed ``query-result`` and a ``failed`` entry."""
        waiting, self._waiting = self._waiting, {}
        for query, subscriber_hex, _trace, timer in waiting.values():
            if timer is not None:
                timer.cancel()
            self.queries_failed += 1
            self._log_query(query, "failed", error="range shut down")
            self._send_failure(query, subscriber_hex, "range shut down")
        self.registrar.shutdown()
        for process in (self.mediator, self.profiles, self.location,
                        *self.range_services.values()):
            process.detach()
        self.detach()


# ---------------------------------------------------------------------- helpers

def _require_id(query: Query) -> None:
    """Refuse an unnamed query: its answer, book entry and trail need one."""
    if not query.query_id:
        raise QueryError("a query needs an id (Query.with_id) to be answered")


def _places_in(expr: LocationExpr) -> List[str]:
    """Concrete place names referenced by a Where expression."""
    places = []
    cursor: Optional[LocationExpr] = expr
    while cursor is not None:
        if cursor.kind == "room" and cursor.name:
            places.append(cursor.name)
        cursor = cursor.inner
    return places


def _candidate_to_wire(candidate: Candidate) -> Dict[str, Any]:
    return {
        "entity": candidate.entity_id,
        "name": candidate.name,
        "room": candidate.room,
        "distance": candidate.distance,
        "reachable": candidate.reachable,
        "available": candidate.available,
        "queue_length": candidate.queue_length,
        "advertisements": candidate.payload["advertisements"],
    }
