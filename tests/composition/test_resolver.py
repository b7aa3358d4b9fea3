"""The Query Resolver: backward chaining, converters, templates, bindings."""

import pytest

from repro.core.errors import NoProviderError
from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.composition.resolver import QueryResolver
from repro.composition.templates import CETemplate, TemplateRegistry
from repro.entities.profile import EntityClass, Profile
from repro.server.deployment import standard_templates
from tests.composition.reference_scan import ReferenceScanResolver


GUIDS = GuidFactory(seed=11)


def sensor_profile(name, type_name="presence", representation="tag-read",
                   subject=None, **attributes):
    return Profile(GUIDS.mint(), name, EntityClass.DEVICE,
                   outputs=[TypeSpec(type_name, representation, subject)],
                   attributes=attributes)


@pytest.fixture
def world(registry, guids, building):
    """(profiles list, templates, resolver) with mutable profiles."""
    profiles = [
        sensor_profile("door-1"),
        sensor_profile("door-2"),
        sensor_profile("wlan", "location", "geometric"),
        sensor_profile("thermo-celsius", "temperature", "celsius",
                       subject="L10.01", room="L10.01"),
        sensor_profile("thermo-fahrenheit", "temperature", "fahrenheit",
                       subject="L10.02", room="L10.02"),
    ]
    templates = standard_templates(guids, building)
    bindings = {}
    resolver = QueryResolver(registry, live_profiles=lambda: list(profiles),
                             templates=templates,
                             bindings_of=bindings.get)
    return profiles, templates, resolver, bindings


class TestDirectResolution:
    def test_direct_sensor_match(self, world):
        profiles, _, resolver, _ = world
        plan = resolver.resolve(TypeSpec("temperature", "celsius"))
        assert plan.depth() == 1
        node = plan.nodes[plan.output_key]
        assert node.profile.name == "thermo-celsius"

    def test_no_provider_raises_with_chain(self, world):
        _, _, resolver, _ = world
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("printer-status", "record"))

    def test_deterministic(self, world):
        _, _, resolver, _ = world
        wanted = TypeSpec("location", "topological", "bob")
        first = resolver.resolve(wanted).describe()
        second = resolver.resolve(wanted).describe()
        # plan ids differ; structure must not
        assert first.split("\n")[1:] == second.split("\n")[1:]


class TestChaining:
    def test_figure3_path_graph(self, world):
        _, _, resolver, _ = world
        plan = resolver.resolve(TypeSpec("path", "rooms", "bob->john"))
        assert plan.depth() == 3
        kinds = {node.kind for node in plan.nodes.values()}
        assert kinds == {"live", "template"}
        path_nodes = [node for node in plan.nodes.values()
                      if node.template_name == "path-ce"]
        assert len(path_nodes) == 1
        assert path_nodes[0].bindings == {"from_subject": "bob",
                                          "to_subject": "john"}

    def test_two_obj_locations_for_path(self, world):
        _, _, resolver, _ = world
        plan = resolver.resolve(TypeSpec("path", "rooms", "bob->john"))
        obj_nodes = [node for node in plan.nodes.values()
                     if node.template_name == "obj-location"]
        assert {tuple(node.bindings.items()) for node in obj_nodes} == {
            (("subject", "bob"),), (("subject", "john"),)}

    def test_multi_source_input_wires_all_sensors(self, world):
        _, _, resolver, _ = world
        plan = resolver.resolve(TypeSpec("location", "topological", "bob"))
        obj_key = plan.output_key
        producers = {edge.producer for edge in plan.inputs_of(obj_key)}
        assert len(producers) == 2  # both door sensors

    def test_shared_sensors_deduped_in_plan(self, world):
        _, _, resolver, _ = world
        plan = resolver.resolve(TypeSpec("path", "rooms", "bob->john"))
        sensor_nodes = [node for node in plan.nodes.values()
                        if node.profile.name.startswith("door")]
        assert len(sensor_nodes) == 2  # not duplicated per obj-location


class TestConverters:
    def test_native_preferred_over_converted(self, world):
        _, _, resolver, _ = world
        plan = resolver.resolve(TypeSpec("location", "topological", "bob"))
        assert all(node.kind != "converter" for node in plan.nodes.values())

    def test_converter_spliced_when_needed(self, world):
        profiles, _, resolver, _ = world
        # remove door sensors: only the geometric wlan can provide location
        profiles[:] = [p for p in profiles if not p.name.startswith("door")]
        plan = resolver.resolve(TypeSpec("location", "topological", "bob"))
        converters = [node for node in plan.nodes.values()
                      if node.kind == "converter"]
        assert len(converters) == 1
        assert converters[0].output_spec.representation == "topological"
        assert plan.output_key == converters[0].key

    def test_exclusion_forces_alternative(self, world):
        profiles, _, resolver, _ = world
        wanted = TypeSpec("location", "topological", "bob")
        first = resolver.resolve(wanted)
        door_hexes = {node.entity_hex for node in first.nodes.values()
                      if node.profile.name.startswith("door")}
        second = resolver.resolve(wanted, exclude=frozenset(door_hexes))
        names = {node.profile.name for node in second.nodes.values()}
        assert "wlan" in names  # fell back to the wireless chain

    def test_unbridgeable_gap_fails(self, world, registry):
        _, _, resolver, _ = world
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("temperature", "kelvin"))


class TestPredicates:
    def test_where_predicate_restricts_providers(self, world):
        _, _, resolver, _ = world
        # The only celsius thermometer is in L10.01; with that room excluded
        # and no fahrenheit->celsius converter registered, resolution fails.
        with pytest.raises(NoProviderError):
            resolver.resolve(
                TypeSpec("temperature", "celsius"),
                provider_predicate=lambda p: p.attributes.get("room") != "L10.01")

    def test_predicate_with_converter_bridges(self, world, registry):
        _, _, resolver, _ = world
        registry.add_converter("temperature", "fahrenheit", "celsius",
                               lambda f: (f - 32) * 5 / 9)
        plan = resolver.resolve(
            TypeSpec("temperature", "celsius"),
            provider_predicate=lambda p: p.attributes.get("room") != "L10.01")
        names = {node.profile.name for node in plan.nodes.values()}
        assert "thermo-fahrenheit" in names
        assert any(node.kind == "converter" for node in plan.nodes.values())


class TestBindings:
    def test_claimed_conflicting_binding_skipped(self, world):
        profiles, _, resolver, bindings = world
        # a live obj-location already bound to eve
        bound = Profile(GUIDS.mint(), "live-objloc",
                        outputs=[TypeSpec("location", "topological")],
                        inputs=[TypeSpec("presence", "tag-read")],
                        params={"subject": ""},
                        attributes={"binding": {"kind": "subject",
                                                "params": ["subject"]}})
        profiles.append(bound)
        bindings[bound.entity_id.hex] = {"subject": "eve"}
        plan = resolver.resolve(TypeSpec("location", "topological", "bob"))
        # must NOT use the eve-bound CE
        assert all(node.entity_hex != bound.entity_id.hex
                   for node in plan.nodes.values())

    def test_claimed_matching_binding_reused(self, world):
        profiles, _, resolver, bindings = world
        bound = Profile(GUIDS.mint(), "live-objloc",
                        outputs=[TypeSpec("location", "topological")],
                        inputs=[TypeSpec("presence", "tag-read")],
                        params={"subject": ""},
                        attributes={"binding": {"kind": "subject",
                                                "params": ["subject"]}})
        profiles.append(bound)
        bindings[bound.entity_id.hex] = {"subject": "bob"}
        plan = resolver.resolve(TypeSpec("location", "topological", "bob"))
        assert any(node.entity_hex == bound.entity_id.hex
                   for node in plan.nodes.values())

    def test_pair_template_needs_pair_subject(self, world):
        _, _, resolver, _ = world
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("path", "rooms", "malformed-subject"))


class TestProfileIndex:
    def test_indexed_and_naive_find_identical_plans(self, registry, guids,
                                                    building, world):
        profiles, templates, indexed_resolver, bindings = world
        naive = ReferenceScanResolver(
            registry, live_profiles=lambda: list(profiles),
            templates=standard_templates(guids, building),
            bindings_of=bindings.get)
        for wanted in (TypeSpec("temperature", "celsius"),
                       TypeSpec("temperature", "any", "L10.02"),
                       TypeSpec("location", "topological", "bob"),
                       TypeSpec("path", "rooms", "bob->john")):
            assert (indexed_resolver.resolve(wanted).describe()
                    == naive.resolve(wanted).describe())
        # and unsatisfiable specs fail identically
        for resolver in (indexed_resolver, naive):
            with pytest.raises(NoProviderError):
                resolver.resolve(TypeSpec("temperature", "fahrenheit", "L10.01"))

    def test_index_is_built_once_across_resolves(self, world):
        _, _, resolver, _ = world
        resolver.resolve(TypeSpec("temperature", "celsius"))
        resolver.resolve(TypeSpec("temperature", "celsius"))
        assert resolver.index_rebuilds == 1
        assert resolver.index_hits >= 2

    def test_subtype_offer_found_via_parent_bucket(self, registry, world):
        profiles, _, resolver, _ = world
        profiles.append(sensor_profile("gps", "gps-position", "geometric"))
        plan = resolver.resolve(TypeSpec("gps-position", "geometric"))
        assert plan.nodes[plan.output_key].profile.name == "gps"
        # the same offer also satisfies the parent type, via the index
        plan = resolver.resolve(TypeSpec("location", "geometric", "bob"))
        assert any(node.profile.name in ("gps", "wlan")
                   for node in plan.nodes.values())


    def test_a_late_type_definition_keeps_the_first_match_rule(
            self, registry, guids, building):
        """An output filed while its type was unknown stays ahead of its
        profile's later outputs once the type is defined, as in the scan."""
        profiles = [Profile(GUIDS.mint(), "late", EntityClass.DEVICE,
                            outputs=[TypeSpec("late-type", "r1"),
                                     TypeSpec("location", "geometric")])]
        resolvers = [cls(registry, live_profiles=lambda: list(profiles),
                         templates=standard_templates(guids, building))
                     for cls in (QueryResolver, ReferenceScanResolver)]
        wanted = TypeSpec("location", "any")
        for resolver in resolvers:
            resolver.resolve(wanted)  # the index is built here
        registry.define("late-type", parent="location")
        assert [str(resolver.resolve(wanted).output_spec)
                for resolver in resolvers] == ["late-type[r1]"] * 2


class _Feed:
    """A mutable profile feed that reports each change to its resolver, as
    the Context Server's registrar hooks do."""

    def __init__(self, registry, guids, building):
        self.profiles = [
            sensor_profile("door-1"),
            sensor_profile("door-2"),
            sensor_profile("wlan", "location", "geometric"),
            sensor_profile("thermo-celsius", "temperature", "celsius",
                           subject="L10.01", room="L10.01"),
        ]
        self.templates = standard_templates(guids, building)
        self.resolver = QueryResolver(
            registry, live_profiles=lambda: list(self.profiles),
            templates=self.templates)

    def register(self, profile):
        self.profiles.append(profile)
        self.resolver.note_profile_added(profile)

    def deregister(self, profile):
        self.profiles.remove(profile)
        self.resolver.note_profile_removed(profile.entity_id.hex)

    def replace(self, old, new):
        self.profiles[self.profiles.index(old)] = new
        self.resolver.note_profile_replaced(old.entity_id.hex, new)


@pytest.fixture
def feed(registry, guids, building):
    return _Feed(registry, guids, building)


class TestDeltaFastPath:
    """The provider index is built once, then patched by reported changes."""

    def test_arrival_patches_index_without_rebuild(self, feed):
        resolver = feed.resolver
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        feed.register(sensor_profile("counter", "occupancy", "count"))
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        assert plan.nodes[plan.output_key].profile.name == "counter"
        assert resolver.index_rebuilds == 1  # delta, not rebuild

    def test_departure_unfiles_without_rebuild(self, feed):
        resolver = feed.resolver
        fresh = sensor_profile("counter", "occupancy", "count")
        feed.register(fresh)
        resolver.resolve(TypeSpec("occupancy", "count"))
        feed.deregister(fresh)
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        assert resolver.index_rebuilds == 1

    def test_replacement_is_one_bump(self, feed):
        """A re-registration is one report: the old outputs are unfiled and
        the new filed."""
        resolver = feed.resolver
        old = sensor_profile("counter", "occupancy", "count")
        feed.register(old)
        resolver.resolve(TypeSpec("occupancy", "count"))
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("network-signal", "dbm"))
        deltas = resolver.index_deltas
        new = Profile(old.entity_id, old.name, old.entity_class,
                      outputs=[TypeSpec("network-signal", "dbm")])
        feed.replace(old, new)
        assert resolver.index_deltas == deltas + 1
        plan = resolver.resolve(TypeSpec("network-signal", "dbm"))
        assert plan.nodes[plan.output_key].profile is new
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        assert resolver.index_rebuilds == 1

    def test_reports_before_the_first_build_are_folded_in(self, feed):
        """The build reads the feed, which already holds what was reported
        before it: each offer is filed once."""
        resolver = feed.resolver
        counter = sensor_profile("counter", "occupancy", "count")
        feed.register(counter)
        feed.register(sensor_profile("gone", "occupancy", "count"))
        feed.deregister(feed.profiles[-1])
        assert resolver.index_deltas == 3
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        assert plan.nodes[plan.output_key].profile is counter
        assert resolver.index_rebuilds == 1
        offers = resolver._provider_index.providers(
            TypeSpec("occupancy", "count"))
        assert [entry.profile for entry in offers
                if entry.origin == "live"] == [counter]

    def test_template_registered_after_the_build_is_a_candidate(
            self, feed):
        resolver = feed.resolver
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        feed.templates.register(CETemplate("counter-ce", Profile(
            GUIDS.mint(), "counter", EntityClass.SOFTWARE,
            outputs=[TypeSpec("occupancy", "count")]), factory=None))
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        node = plan.nodes[plan.output_key]
        assert (node.kind, node.template_name) == ("template", "counter-ce")
        assert resolver.index_rebuilds == 1
