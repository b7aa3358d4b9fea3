"""Sequence property: the query path's two indexes never drift from a scan.

A Context Server is driven through random sequences of everything that can
change what a query selects — registration, re-registration with a changed
profile, deregistration, lease expiry, manager-spawned CEs
(``register_record``), ``device`` attribute updates, handoff replay and
template registration. After every step

(a) ``registrar.matching(what)`` equals the reference scan
    (``tests/server/reference_scan.py``), same records in the same order,
    for all three What kinds, and
(b) the provider index, built once and patched from the registrar's hooks,
    yields the same plan as a resolver built from scratch on the same
    population, and as the full-scan resolver
    (``tests/composition/reference_scan.py``).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.composition.resolver import QueryResolver
from repro.composition.templates import CETemplate
from repro.core.errors import NoProviderError
from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec, standard_registry
from repro.entities.advertisement import Advertisement
from repro.entities.entity import ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.mobility.handoff import REPLAY_INTERVAL, HandoffCoordinator
from repro.net.transport import FixedLatency, FunctionProcess, Network
from repro.query.model import WhatClause
from repro.server.context_server import ContextServer
from repro.server.deployment import standard_templates
from repro.server.range import RangeDefinition
from repro.server.registrar import RegistrationRecord
from tests.composition.reference_scan import ReferenceScanResolver
from tests.server.reference_scan import scan_matching

BUILDING = livingstone_tower()
REGISTRY = register_location_converters(standard_registry(), BUILDING)

ENTITIES = 5
LEASE = 10.0
NAMES = ["a", "b", "c"]
#: offers are unbound or bound to one of two subjects; a two-output variant
#: can hold a bound and an unbound offer of one type in either order
OUTPUTS = [TypeSpec("temperature", "celsius"),
           TypeSpec("temperature", "fahrenheit"),
           TypeSpec("temperature", "celsius", "ann"),
           TypeSpec("temperature", "fahrenheit", "bob"),
           TypeSpec("presence", "tag-read"),
           TypeSpec("occupancy", "count"),
           TypeSpec("gps-position", "geometric"),
           TypeSpec("gps-position", "symbolic", "ann")]
DEVICES = [None, "printer", "scanner", "device"]
SERVICES = ["print-service", "scan", "printer"]
WANTED = [spec for spec in OUTPUTS if spec.subject is None] + [
    TypeSpec("location", "geometric"),
    TypeSpec("location", "geometric", "ann"),
    TypeSpec("temperature", "any"),
    TypeSpec("temperature", "any", "ann"),
    TypeSpec("temperature", "celsius", "bob")]
WHATS = ([WhatClause.entity_type(tag) for tag in
          ("printer", "scanner", "device", "software", "print", "scan",
           "print-service", "fax")]
         + [WhatClause.for_pattern(type_name) for type_name in
            ("temperature", "presence", "occupancy", "gps-position",
             "location")]
         + [WhatClause.named(name) for name in NAMES + ["nobody"]])

variants = st.fixed_dictionaries({
    "name": st.sampled_from(NAMES),
    "entity_class": st.sampled_from([EntityClass.DEVICE,
                                     EntityClass.SOFTWARE]),
    "outputs": st.lists(st.sampled_from(OUTPUTS), max_size=2, unique=True),
    "device": st.sampled_from(DEVICES),
    "services": st.lists(st.sampled_from(SERVICES), max_size=2, unique=True),
})
entity = st.integers(0, ENTITIES - 1)
operations = st.one_of(
    st.tuples(st.just("register"), entity, variants,
              st.sampled_from(["ce", "ce", "caa"])),
    st.tuples(st.just("deregister"), entity),
    st.tuples(st.just("expire"), st.sets(entity)),
    st.tuples(st.just("spawn"), variants),
    st.tuples(st.just("device"), entity, st.sampled_from(DEVICES[1:])),
    st.tuples(st.just("handoff"), entity, st.sampled_from(DEVICES[1:])),
    st.tuples(st.just("template"), st.sampled_from(OUTPUTS)),
)


def build_profile(guid, variant):
    attributes = {"device": variant["device"]} if variant["device"] else {}
    return Profile(guid, variant["name"], variant["entity_class"],
                   outputs=list(variant["outputs"]), attributes=attributes)


def advertisements(variant):
    return [Advertisement(service, ["use"]) for service in variant["services"]]


class _World:
    """One range plus the components the operations act through."""

    def __init__(self):
        self.network = Network(latency_model=FixedLatency(1.0), seed=3)
        for host in ("host-a", "host-b"):
            self.network.add_host(host)
        self.guids = GuidFactory(seed=11)
        self.server = ContextServer(
            self.guids.mint(), "host-a", self.network,
            definition=RangeDefinition("prop", places=["livingstone"],
                                       hosts=["host-a", "host-b"]),
            building=BUILDING, registry=REGISTRY, guid_factory=self.guids,
            templates=standard_templates(self.guids, BUILDING),
            lease_duration=LEASE)
        self.components = [
            FunctionProcess(self.guids.mint(), "host-b", self.network,
                            lambda message: None, name=f"component-{index}")
            for index in range(ENTITIES)]
        self.templates_added = 0

    def run(self, duration):
        self.network.scheduler.run_for(duration)

    def apply(self, op):
        kind = op[0]
        server, registrar = self.server, self.server.registrar
        if kind == "register":
            _, index, variant, component_kind = op
            component = self.components[index]
            component.send(registrar.guid, "register", {
                "kind": component_kind,
                "profile": build_profile(component.guid, variant).to_wire(),
                "advertisements": [ad.to_wire()
                                   for ad in advertisements(variant)]})
        elif kind == "deregister":
            component = self.components[op[1]]
            component.send(registrar.guid, "deregister",
                           {"entity": component.guid.hex})
        elif kind == "expire":
            self.run(0.6 * LEASE)
            # one machine-level heartbeat, as the Range Service sends it
            self.components[0].send(registrar.guid, "heartbeat", {
                "entities": [self.components[index].guid.hex
                             for index in sorted(op[1])]})
            self.run(LEASE)  # the others' leases lapse and are evicted
        elif kind == "spawn":
            server._record_spawned(ContextEntity(
                build_profile(self.guids.mint(), op[1]), "host-a",
                self.network, advertisements(op[1])))
        elif kind == "device":
            server.profiles.update_attributes(
                self.components[op[1]].guid.hex, {"device": op[2]})
        elif kind == "handoff":
            departed = RegistrationRecord(profile=Profile(
                self.components[op[1]].guid, "carried",
                attributes={"device": op[2], "visits": 3}), kind="ce")
            HandoffCoordinator().carry(departed, source=None, target=server)
            self.run(REPLAY_INTERVAL)
        elif kind == "template":
            self.templates_added += 1
            server.templates.register(CETemplate(
                f"prop-template-{self.templates_added}",
                Profile(self.guids.mint(), "spawnable", outputs=[op[1]]),
                factory=None))
        self.run(3)  # deliver whatever the operation sent

    # -- the two equivalences -------------------------------------------------

    def assert_what_index_equals_scan(self):
        registrar = self.server.registrar
        whats = list(WHATS)
        for record in registrar.records():
            whats.append(WhatClause.named(record.entity_hex))
        for what in whats:
            indexed = [id(record) for record in registrar.matching(what)]
            scanned = [id(record) for record in scan_matching(registrar, what)]
            assert indexed == scanned, str(what)

    def assert_provider_index_equals_rebuild(self):
        server = self.server
        references = [cls(REGISTRY, live_profiles=server._resolver_profiles,
                          templates=server.templates,
                          bindings_of=server.configurations.bindings_of)
                      for cls in (QueryResolver, ReferenceScanResolver)]
        for wanted in WANTED:
            maintained = _shape(server.resolver, wanted)
            for reference in references:
                assert maintained == _shape(reference, wanted), str(wanted)


def _shape(resolver, wanted):
    try:
        plan = resolver.resolve(wanted)
    except NoProviderError:
        return None
    # namesakes are told apart by hex and the output spec names the offer
    # that matched
    return (plan.describe(), plan.output_spec,
            [(node.kind, node.entity_hex or node.template_name)
             for node in plan.nodes.values() if node.kind != "converter"])


#: two namesakes with identical offers, then the first registers again: the
#: delta index holds them in the other order than a rebuild would, so only
#: a total-order candidate score keeps the plans equal
_TWIN = {"name": "a", "entity_class": EntityClass.DEVICE,
         "outputs": [OUTPUTS[0]], "device": None, "services": []}
_NAMESAKE_REPLACED = [("register", 0, _TWIN, "ce"), ("register", 1, _TWIN, "ce"),
                      ("register", 0, _TWIN, "ce")]
#: an unbound offer filed before a bound one of the same type: a want for
#: ann must take the first, as the full scan does
_BADGE = {"name": "a", "entity_class": EntityClass.DEVICE,
          "outputs": [OUTPUTS[1], OUTPUTS[2]], "device": None, "services": []}
_UNBOUND_FILED_FIRST = [("register", 0, _BADGE, "ce")]


class TestQueryIndexSequences:
    @given(st.lists(operations, min_size=1, max_size=14))
    @example(_NAMESAKE_REPLACED)
    @example(_UNBOUND_FILED_FIRST)
    @settings(max_examples=120, deadline=None)
    def test_indexes_track_the_population(self, ops):
        world = _World()
        world.run(3)
        _shape(world.server.resolver, WANTED[0])  # built once, then patched
        for op in ops:
            world.apply(op)
            world.assert_what_index_equals_scan()
            world.assert_provider_index_equals_rebuild()

    @given(st.lists(operations, min_size=4, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_membership_changes_never_rebuild(self, ops):
        """Nothing rebuilds the index: a template registration is filed at
        the next lookup."""
        world = _World()
        world.run(3)
        resolver = world.server.resolver
        _shape(resolver, WANTED[0])
        for op in ops:
            world.apply(op)
            _shape(resolver, WANTED[0])
        assert resolver.index_rebuilds == 1
