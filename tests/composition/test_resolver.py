"""The Query Resolver: backward chaining, converters, templates, bindings."""

import pytest

from repro.core.errors import NoProviderError
from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.composition.resolver import QueryResolver
from repro.composition.templates import TemplateRegistry
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
        def shape(plan):
            # drop the globally unique "plan-N" id; compare structure only
            return plan.describe().split(":", 1)[1]

        for wanted in (TypeSpec("temperature", "celsius"),
                       TypeSpec("temperature", "any", "L10.02"),
                       TypeSpec("location", "topological", "bob"),
                       TypeSpec("path", "rooms", "bob->john")):
            assert (shape(indexed_resolver.resolve(wanted))
                    == shape(naive.resolve(wanted)))
        # and unsatisfiable specs fail identically
        for resolver in (indexed_resolver, naive):
            with pytest.raises(NoProviderError):
                resolver.resolve(TypeSpec("temperature", "fahrenheit", "L10.01"))

    def test_without_feed_rebuilds_once_per_resolve(self, world):
        _, _, resolver, _ = world
        resolver.resolve(TypeSpec("temperature", "celsius"))
        assert resolver.index_rebuilds == 1
        resolver.resolve(TypeSpec("temperature", "celsius"))
        assert resolver.index_rebuilds == 2

    def test_stable_feed_version_reuses_index(self, registry, world):
        profiles, templates, _, bindings = world
        version = [0]
        resolver = QueryResolver(registry,
                                 live_profiles=lambda: list(profiles),
                                 templates=templates,
                                 bindings_of=bindings.get,
                                 feed_version=lambda: version[0])
        resolver.resolve(TypeSpec("temperature", "celsius"))
        resolver.resolve(TypeSpec("temperature", "celsius"))
        assert resolver.index_rebuilds == 1
        assert resolver.index_hits >= 2

    def test_feed_change_invalidates_index(self, registry, world):
        profiles, templates, _, bindings = world
        version = [0]
        resolver = QueryResolver(registry,
                                 live_profiles=lambda: list(profiles),
                                 templates=templates,
                                 bindings_of=bindings.get,
                                 feed_version=lambda: version[0])
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        profiles.append(sensor_profile("counter", "occupancy", "count"))
        version[0] += 1  # what the registrar does on registration
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        assert plan.nodes[plan.output_key].profile.name == "counter"
        assert resolver.index_rebuilds == 2

    def test_subtype_offer_found_via_parent_bucket(self, registry, world):
        profiles, _, resolver, _ = world
        profiles.append(sensor_profile("gps", "gps-position", "geometric"))
        plan = resolver.resolve(TypeSpec("gps-position", "geometric"))
        assert plan.nodes[plan.output_key].profile.name == "gps"
        # the same offer also satisfies the parent type, via the index
        plan = resolver.resolve(TypeSpec("location", "geometric", "bob"))
        assert any(node.profile.name in ("gps", "wlan")
                   for node in plan.nodes.values())

    def test_without_feed_deltas_are_ignored(self, registry, guids, building):
        """Without a feed every resolve rebuilds, so a delta has no chain to
        advance: it is ignored and the next resolve still sees the arrival."""
        feed = _Feed(guids, building)
        resolver = QueryResolver(registry,
                                 live_profiles=lambda: list(feed.profiles),
                                 templates=feed.templates)
        resolver.resolve(TypeSpec("temperature", "celsius"))
        fresh = sensor_profile("counter", "occupancy", "count")
        feed.register(fresh)
        assert resolver.note_profile_added(fresh) == 0
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        assert plan.nodes[plan.output_key].profile.name == "counter"
        assert resolver.index_rebuilds == 2


class _Feed:
    """A mutable profile feed with the CS's (registrations, templates) token."""

    def __init__(self, guids, building):
        self.profiles = [
            sensor_profile("door-1"),
            sensor_profile("door-2"),
            sensor_profile("wlan", "location", "geometric"),
            sensor_profile("thermo-celsius", "temperature", "celsius",
                           subject="L10.01", room="L10.01"),
        ]
        self.templates = standard_templates(guids, building)
        self.registrations = len(self.profiles)

    def version(self):
        return (self.registrations, self.templates.version)

    def resolver(self, registry):
        return QueryResolver(registry,
                             live_profiles=lambda: list(self.profiles),
                             templates=self.templates,
                             feed_version=self.version)

    def register(self, profile):
        """What the registrar does: bump version, then notify."""
        self.profiles.append(profile)
        self.registrations += 1

    def deregister(self, profile):
        self.profiles.remove(profile)
        self.registrations += 1


class TestDeltaFastPath:
    """The provider index is kept by delta along the feed's version chain."""

    def test_arrival_patches_index_without_rebuild(self, registry, guids,
                                                   building):
        feed = _Feed(guids, building)
        resolver = feed.resolver(registry)
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        rebuilds = resolver.index_rebuilds
        fresh = sensor_profile("counter", "occupancy", "count")
        feed.register(fresh)
        assert resolver.note_profile_added(fresh) == 1
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        assert plan.nodes[plan.output_key].profile.name == "counter"
        assert resolver.index_rebuilds == rebuilds  # delta, not rebuild

    def test_departure_unfiles_without_rebuild(self, registry, guids,
                                               building):
        feed = _Feed(guids, building)
        fresh = sensor_profile("counter", "occupancy", "count")
        feed.profiles.append(fresh)
        feed.registrations += 1
        resolver = feed.resolver(registry)
        resolver.resolve(TypeSpec("occupancy", "count"))
        rebuilds = resolver.index_rebuilds
        feed.deregister(fresh)
        resolver.note_profile_removed(fresh.entity_id.hex)
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        assert resolver.index_rebuilds == rebuilds

    def test_none_delta_advances_chain(self, registry, guids, building):
        """A CAA arrival bumps the version but files nothing."""
        feed = _Feed(guids, building)
        resolver = feed.resolver(registry)
        resolver.resolve(TypeSpec("temperature", "celsius"))
        rebuilds = resolver.index_rebuilds
        feed.registrations += 1  # a CAA registered
        resolver.note_profile_added(None)
        resolver.resolve(TypeSpec("temperature", "celsius"))
        assert resolver.index_rebuilds == rebuilds

    def test_missed_bump_forces_rebuild_not_staleness(self, registry, guids,
                                                      building):
        """A version change without a delta must never be masked."""
        feed = _Feed(guids, building)
        resolver = feed.resolver(registry)
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        # the feed changes WITHOUT a delta call (e.g. a re-registration)...
        fresh = sensor_profile("counter", "occupancy", "count")
        feed.register(fresh)
        # ...then a later delta arrives; it must not chain over the gap
        other = sensor_profile("door-9")
        feed.register(other)
        resolver.note_profile_added(other)
        # the rebuild path still surfaces the profile the delta skipped
        rebuilds = resolver.index_rebuilds
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        assert plan.nodes[plan.output_key].profile.name == "counter"
        assert resolver.index_rebuilds == rebuilds + 1

    def test_replacement_is_one_bump(self, registry, guids, building):
        """A re-registration unfiles the old outputs and files the new."""
        feed = _Feed(guids, building)
        old = sensor_profile("counter", "occupancy", "count")
        feed.profiles.append(old)
        feed.registrations += 1
        resolver = feed.resolver(registry)
        resolver.resolve(TypeSpec("occupancy", "count"))
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("network-signal", "dbm"))
        rebuilds = resolver.index_rebuilds
        new = Profile(old.entity_id, old.name, old.entity_class,
                      outputs=[TypeSpec("network-signal", "dbm")])
        feed.profiles[feed.profiles.index(old)] = new
        feed.registrations += 1
        resolver.note_profile_replaced(old.entity_id.hex, new)
        plan = resolver.resolve(TypeSpec("network-signal", "dbm"))
        assert plan.nodes[plan.output_key].profile is new
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        assert resolver.index_rebuilds == rebuilds

    def test_template_registration_is_a_gap(self, registry, guids, building):
        """The templates component of the token moved: rebuild, not delta."""
        feed = _Feed(guids, building)
        resolver = feed.resolver(registry)
        resolver.resolve(TypeSpec("temperature", "celsius"))
        rebuilds = resolver.index_rebuilds
        feed.templates.version += 1
        other = sensor_profile("door-9")
        feed.register(other)
        assert resolver.note_profile_added(other) == 0
        resolver.resolve(TypeSpec("temperature", "celsius"))
        assert resolver.index_rebuilds == rebuilds + 1

    def test_bad_token_shape_rejected(self, registry, guids, building):
        feed = _Feed(guids, building)
        resolver = QueryResolver(registry,
                                 live_profiles=lambda: list(feed.profiles),
                                 templates=feed.templates,
                                 feed_version=lambda: 7)  # not a pair
        with pytest.raises(TypeError):
            resolver.note_profile_added(None)
