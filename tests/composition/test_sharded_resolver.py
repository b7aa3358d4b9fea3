"""The provider index at K >= 1: equivalence, delta fast path, version chaining."""

import pytest

from repro.core.errors import NoProviderError
from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.composition.resolver import QueryResolver
from repro.composition.shard_index import ShardedProfileIndex
from repro.composition.templates import TemplateRegistry
from repro.entities.profile import EntityClass, Profile
from repro.server.deployment import standard_templates

GUIDS = GuidFactory(seed=23)

WANTED = [
    TypeSpec("temperature", "celsius"),
    TypeSpec("temperature", "any", "L10.02"),
    TypeSpec("location", "topological", "bob"),
    TypeSpec("path", "rooms", "bob->john"),
]


def sensor_profile(name, type_name="presence", representation="tag-read",
                   subject=None, **attributes):
    return Profile(GUIDS.mint(), name, EntityClass.DEVICE,
                   outputs=[TypeSpec(type_name, representation, subject)],
                   attributes=attributes)


def base_profiles():
    return [
        sensor_profile("door-1"),
        sensor_profile("door-2"),
        sensor_profile("wlan", "location", "geometric"),
        sensor_profile("thermo-celsius", "temperature", "celsius",
                       subject="L10.01", room="L10.01"),
        sensor_profile("thermo-fahrenheit", "temperature", "fahrenheit",
                       subject="L10.02", room="L10.02"),
    ]


class _Feed:
    """A mutable profile feed with the CS's (registrations, templates) token."""

    def __init__(self, guids, building, profiles=None):
        self.profiles = base_profiles() if profiles is None else profiles
        self.templates = standard_templates(guids, building)
        self.registrations = len(self.profiles)

    def version(self):
        return (self.registrations, self.templates.version)

    def resolver(self, registry, shards):
        return QueryResolver(registry,
                             live_profiles=lambda: list(self.profiles),
                             templates=self.templates,
                             feed_version=self.version,
                             shards=shards)

    def register(self, profile):
        """What the registrar does: bump version, then notify."""
        self.profiles.append(profile)
        self.registrations += 1

    def deregister(self, profile):
        self.profiles.remove(profile)
        self.registrations += 1


def shape(plan):
    # drop the globally unique "plan-N" id; compare structure only
    return plan.describe().split(":", 1)[1]


class TestEquivalence:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_sharded_plans_identical_to_unsharded(self, registry, guids,
                                                  building, shards):
        plain = _Feed(guids, building).resolver(registry, shards=1)
        sharded = _Feed(guids, building).resolver(registry, shards=shards)
        for wanted in WANTED:
            assert shape(sharded.resolve(wanted)) == shape(plain.resolve(wanted))
        for resolver in (plain, sharded):
            with pytest.raises(NoProviderError):
                resolver.resolve(TypeSpec("temperature", "fahrenheit",
                                          "L10.01"))

    def test_equivalence_survives_churn(self, registry, guids, building):
        feeds = [_Feed(guids, building) for _ in range(2)]
        plain = feeds[0].resolver(registry, shards=1)
        sharded = feeds[1].resolver(registry, shards=3)
        extra = sensor_profile("counter", "occupancy", "count")
        for feed, resolver in ((feeds[0], plain), (feeds[1], sharded)):
            resolver.resolve(TypeSpec("temperature", "celsius"))
            twin = Profile(extra.entity_id, extra.name, extra.entity_class,
                           outputs=list(extra.outputs))
            feed.register(twin)
            resolver.note_profile_added(twin)
        assert (shape(sharded.resolve(TypeSpec("occupancy", "count")))
                == shape(plain.resolve(TypeSpec("occupancy", "count"))))

    def test_query_touches_one_shard_slice(self, registry, guids, building):
        feed = _Feed(guids, building)
        resolver = feed.resolver(registry, shards=4)
        resolver.resolve(TypeSpec("temperature", "celsius"))
        assert len(resolver._provider_index.built_shards()) == 1


class TestDeltaFastPath:
    SHARDS = 3

    def test_arrival_patches_built_shards_without_rebuild(self, registry,
                                                          guids, building):
        feed = _Feed(guids, building)
        resolver = feed.resolver(registry, shards=self.SHARDS)
        with pytest.raises(NoProviderError):
            resolver.resolve(TypeSpec("occupancy", "count"))
        rebuilds = resolver.index_rebuilds
        fresh = sensor_profile("counter", "occupancy", "count")
        feed.register(fresh)
        resolver.note_profile_added(fresh)
        plan = resolver.resolve(TypeSpec("occupancy", "count"))
        assert plan.nodes[plan.output_key].profile.name == "counter"
        assert resolver.index_rebuilds == rebuilds  # delta, not rebuild

    def test_departure_unfiles_without_rebuild(self, registry, guids,
                                               building):
        feed = _Feed(guids, building)
        fresh = sensor_profile("counter", "occupancy", "count")
        feed.profiles.append(fresh)
        feed.registrations += 1
        resolver = feed.resolver(registry, shards=self.SHARDS)
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
        resolver = feed.resolver(registry, shards=self.SHARDS)
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
        resolver = feed.resolver(registry, shards=self.SHARDS)
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
        resolver = feed.resolver(registry, shards=self.SHARDS)
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
        resolver = feed.resolver(registry, shards=self.SHARDS)
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
                                 feed_version=lambda: 7,  # not a pair
                                 shards=self.SHARDS)
        with pytest.raises(TypeError):
            resolver.note_profile_added(None)


class TestDeltaFastPathUnsharded(TestDeltaFastPath):
    """The default deployment's index (K=1) keeps the same chain."""

    SHARDS = 1


class TestConstruction:
    def test_sharded_requires_feed_version(self, registry, guids, building):
        """Slices only pay off by chaining deltas, so K > 1 insists on a
        feed; K = 1 without one is the rebuild-per-resolve contract, where
        deltas have no chain to advance and are ignored."""
        with pytest.raises(ValueError):
            QueryResolver(registry, live_profiles=list, shards=2)
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

    def test_unknown_types_replicated_to_every_slice(self, registry):
        index = ShardedProfileIndex(registry, shards=3)
        mystery = sensor_profile("mystery", "unregistered-type", "raw")
        templates = TemplateRegistry()
        token = (1, 0)
        for type_name in ("temperature", "location", "presence", "path"):
            entries, _ = index.providers(type_name, lambda: [mystery],
                                         templates, token)
            assert [entry.profile.name for entry in entries] == ["mystery"]
