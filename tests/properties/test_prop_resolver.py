"""Property-based resolver invariants over random profile pools."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import NoProviderError
from repro.core.ids import GuidFactory
from repro.core.types import TypeRegistry, TypeSpec
from repro.composition.resolver import QueryResolver
from repro.entities.profile import EntityClass, Profile
from tests.composition.reference_scan import ReferenceScanResolver

TYPE_NAMES = ["alpha", "beta", "gamma"]
REPRESENTATIONS = ["r1", "r2", "r3"]
#: offered and wanted subjects; None is an unbound offer / any-subject want
SUBJECTS = [None, "ann", "bob", "cid"]


def build_registry(converter_edges):
    registry = TypeRegistry()
    for name in TYPE_NAMES:
        registry.define(name)
    for type_name, source, target in converter_edges:
        if source != target:
            registry.add_converter(type_name, source, target, lambda v: v)
    return registry


@st.composite
def pools(draw):
    """A random world: sensor profiles, optional derived profiles, converters.

    Offers are bound to a subject or unbound. A "badge" offers one type
    twice, bound and unbound, in two representations and either order, so
    the first-match rule decides which output serves a subject-bound want.
    """
    guids = GuidFactory(seed=draw(st.integers(0, 1000)))
    subjects = st.sampled_from(SUBJECTS)
    profiles = []
    for index in range(draw(st.integers(1, 8))):
        type_name = draw(st.sampled_from(TYPE_NAMES))
        representation = draw(st.sampled_from(REPRESENTATIONS))
        profiles.append(Profile(
            guids.mint(), f"sensor-{index}", EntityClass.DEVICE,
            outputs=[TypeSpec(type_name, representation, draw(subjects))]))
    for index in range(draw(st.integers(0, 2))):
        type_name = draw(st.sampled_from(TYPE_NAMES))
        first, second = draw(st.lists(st.sampled_from(REPRESENTATIONS),
                                      min_size=2, max_size=2, unique=True))
        outputs = [TypeSpec(type_name, first, draw(st.sampled_from(SUBJECTS[1:]))),
                   TypeSpec(type_name, second)]
        if draw(st.booleans()):
            outputs.reverse()
        profiles.append(Profile(guids.mint(), f"badge-{index}",
                                EntityClass.DEVICE, outputs=outputs))
    for index in range(draw(st.integers(0, 3))):
        in_type = draw(st.sampled_from(TYPE_NAMES))
        out_type = draw(st.sampled_from(TYPE_NAMES))
        if in_type == out_type:
            continue  # avoid trivial self-loops in the type graph
        profiles.append(Profile(
            guids.mint(), f"derived-{index}", EntityClass.SOFTWARE,
            outputs=[TypeSpec(out_type, draw(st.sampled_from(REPRESENTATIONS)),
                              draw(subjects))],
            inputs=[TypeSpec(in_type, draw(st.sampled_from(REPRESENTATIONS)),
                             draw(subjects))]))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(TYPE_NAMES),
                  st.sampled_from(REPRESENTATIONS),
                  st.sampled_from(REPRESENTATIONS)),
        max_size=5))
    return profiles, edges


@st.composite
def wanted_specs(draw):
    return TypeSpec(draw(st.sampled_from(TYPE_NAMES)),
                    draw(st.sampled_from(REPRESENTATIONS + ["any"])),
                    draw(st.sampled_from(SUBJECTS)))


#: a badge whose unbound output comes first: a want for ann must take it,
#: as the full scan does, not the later output bound to ann
_BADGE_UNBOUND_FIRST = ([Profile(
    GuidFactory(seed=5).mint(), "badge-0", EntityClass.DEVICE,
    outputs=[TypeSpec("alpha", "r2"), TypeSpec("alpha", "r1", "ann")])], [])


class TestResolverProperties:
    @given(pools(), wanted_specs())
    @settings(max_examples=150, deadline=None)
    def test_plans_validate_and_satisfy(self, pool, wanted):
        profiles, edges = pool
        registry = build_registry(edges)
        resolver = QueryResolver(registry, live_profiles=lambda: profiles)
        try:
            plan = resolver.resolve(wanted)
        except NoProviderError:
            return
        plan.validate()  # DAG, rooted, sources at leaves
        assert registry.satisfies(plan.output_spec, wanted)
        # every source node is a sensor-level profile (no event inputs)
        for key in plan.source_keys():
            node = plan.nodes[key]
            if node.kind == "live":
                assert not node.profile.inputs

    @given(pools(), wanted_specs())
    @settings(max_examples=100, deadline=None)
    def test_resolution_deterministic(self, pool, wanted):
        profiles, edges = pool
        registry = build_registry(edges)
        resolver = QueryResolver(registry, live_profiles=lambda: profiles)

        def structure():
            try:
                plan = resolver.resolve(wanted)
            except NoProviderError:
                return None
            return sorted((edge.producer.split(":", 1)[0],
                           plan.nodes[edge.producer].profile.name,
                           plan.nodes[edge.consumer].profile.name,
                           str(edge.spec)) for edge in plan.edges), \
                plan.nodes[plan.output_key].profile.name

        assert structure() == structure()

    @given(pools(), wanted_specs())
    @example(_BADGE_UNBOUND_FIRST, TypeSpec("alpha", "any", "ann"))
    @settings(max_examples=150, deadline=None)
    def test_indexed_plans_identical_to_full_scan(self, pool, wanted):
        """The profile index is a pure pre-filter: same plan, same failure."""
        profiles, edges = pool
        registry = build_registry(edges)

        def shape(resolver):
            try:
                plan = resolver.resolve(wanted)
            except NoProviderError:
                return None
            # the structure, plus the output spec, which names the offer
            # that matched
            return plan.describe(), plan.output_spec

        indexed = QueryResolver(registry, live_profiles=lambda: profiles)
        scan = ReferenceScanResolver(registry,
                                     live_profiles=lambda: profiles)
        assert shape(indexed) == shape(scan)

    @given(pools(), wanted_specs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_exclusion_is_respected(self, pool, wanted, data):
        profiles, edges = pool
        registry = build_registry(edges)
        resolver = QueryResolver(registry, live_profiles=lambda: profiles)
        try:
            plan = resolver.resolve(wanted)
        except NoProviderError:
            return
        live_hexes = plan.live_entity_hexes()
        if not live_hexes:
            return
        excluded = data.draw(st.sampled_from(live_hexes))
        try:
            replanned = resolver.resolve(wanted,
                                         exclude=frozenset({excluded}))
        except NoProviderError:
            return  # no alternative exists: acceptable
        assert excluded not in replanned.live_entity_hexes()

    @given(pools())
    @settings(max_examples=50, deadline=None)
    def test_unknown_type_always_fails(self, pool):
        profiles, edges = pool
        registry = build_registry(edges)
        registry.define("never-produced")
        resolver = QueryResolver(registry, live_profiles=lambda: profiles)
        try:
            resolver.resolve(TypeSpec("never-produced", "any"))
            assert False, "nothing produces this type"
        except NoProviderError:
            pass
