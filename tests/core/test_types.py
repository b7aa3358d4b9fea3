"""The type ontology: subtyping, spec matching, converter search."""

import pytest

from repro.core.types import (
    ContextType,
    Converter,
    TypeRegistry,
    TypeSpec,
    TypeError_,
    standard_registry,
)


@pytest.fixture
def registry():
    reg = TypeRegistry()
    reg.define("location")
    reg.define("gps-position", parent="location")
    reg.define("temperature")
    return reg


class TestOntology:
    def test_define_and_get(self, registry):
        assert registry.get("location").name == "location"

    def test_unknown_type_raises(self, registry):
        with pytest.raises(TypeError_):
            registry.get("nope")

    def test_unknown_parent_rejected(self, registry):
        with pytest.raises(TypeError_):
            registry.define("orphan", parent="missing")

    def test_ancestors_chain(self, registry):
        assert registry.ancestors("gps-position") == ["gps-position", "location"]

    def test_subtype_reflexive(self, registry):
        assert registry.is_subtype("location", "location")

    def test_subtype_directional(self, registry):
        assert registry.is_subtype("gps-position", "location")
        assert not registry.is_subtype("location", "gps-position")


class TestTypeSpec:
    def test_bind_narrows_subject(self):
        spec = TypeSpec("location", "topological")
        assert spec.bind("bob").subject == "bob"

    def test_of_sorts_quality(self):
        spec = TypeSpec.of("location", quality={"b": 2.0, "a": 1.0})
        assert spec.quality == (("a", 1.0), ("b", 2.0))

    def test_specs_hashable_and_equal(self):
        assert TypeSpec("t", "r", "s") == TypeSpec("t", "r", "s")
        assert hash(TypeSpec("t", "r")) == hash(TypeSpec("t", "r"))

    def test_str_rendering(self):
        assert str(TypeSpec("location", "symbolic", "bob")) == "location[symbolic]@bob"


class TestMatching:
    def test_direct_match_empty_path(self, registry):
        offered = TypeSpec("location", "symbolic")
        wanted = TypeSpec("location", "symbolic")
        assert registry.conversion_path(offered, wanted) == []

    def test_any_representation_matches(self, registry):
        assert registry.conversion_path(
            TypeSpec("location", "symbolic"), TypeSpec("location", "any")) == []
        assert registry.conversion_path(
            TypeSpec("location", "any"), TypeSpec("location", "symbolic")) == []

    def test_semantic_mismatch_is_none(self, registry):
        assert registry.conversion_path(
            TypeSpec("temperature", "celsius"),
            TypeSpec("location", "any")) is None

    def test_subtype_satisfies_supertype(self, registry):
        assert registry.conversion_path(
            TypeSpec("gps-position", "geometric"),
            TypeSpec("location", "geometric")) == []

    def test_supertype_does_not_satisfy_subtype(self, registry):
        assert registry.conversion_path(
            TypeSpec("location", "geometric"),
            TypeSpec("gps-position", "geometric")) is None

    def test_subject_mismatch_is_none(self, registry):
        assert registry.conversion_path(
            TypeSpec("location", "symbolic", "bob"),
            TypeSpec("location", "symbolic", "john")) is None

    def test_unbound_offer_satisfies_bound_want(self, registry):
        assert registry.conversion_path(
            TypeSpec("location", "symbolic", None),
            TypeSpec("location", "symbolic", "john")) == []

    def test_single_converter_found(self, registry):
        registry.add_converter("location", "geometric", "symbolic", lambda v: "x")
        path = registry.conversion_path(
            TypeSpec("location", "geometric"), TypeSpec("location", "symbolic"))
        assert len(path) == 1
        assert path[0].target_representation == "symbolic"

    def test_chain_of_converters(self, registry):
        registry.add_converter("location", "signal", "geometric", lambda v: v)
        registry.add_converter("location", "geometric", "symbolic", lambda v: v)
        path = registry.conversion_path(
            TypeSpec("location", "signal"), TypeSpec("location", "symbolic"))
        assert [c.source_representation for c in path] == ["signal", "geometric"]

    def test_cheapest_chain_wins(self, registry):
        registry.add_converter("location", "a", "b", lambda v: v, cost=10.0)
        registry.add_converter("location", "a", "c", lambda v: v, cost=1.0)
        registry.add_converter("location", "c", "b", lambda v: v, cost=1.0)
        path = registry.conversion_path(
            TypeSpec("location", "a"), TypeSpec("location", "b"))
        assert len(path) == 2  # via c: total 2 < direct 10

    def test_no_bridge_is_none(self, registry):
        assert registry.conversion_path(
            TypeSpec("location", "weird"), TypeSpec("location", "symbolic")) is None

    def test_converter_on_parent_applies_to_subtype(self, registry):
        registry.add_converter("location", "geometric", "symbolic", lambda v: v)
        path = registry.conversion_path(
            TypeSpec("gps-position", "geometric"), TypeSpec("location", "symbolic"))
        assert path is not None and len(path) == 1

    def test_any_representation_is_satisfied(self, registry):
        assert registry.conversion_path(
            TypeSpec("location", "x"), TypeSpec("location", "any")) == []
        assert registry.conversion_path(
            TypeSpec("temperature", "x"), TypeSpec("location", "any")) is None


class TestMemo:
    """Answers are memoised until the ontology or a converter changes."""

    def test_cheaper_converter_replaces_a_cached_path(self, registry):
        registry.add_converter("location", "a", "b", lambda v: v)
        registry.add_converter("location", "b", "c", lambda v: v)
        offered, wanted = TypeSpec("location", "a"), TypeSpec("location", "c")
        assert len(registry.conversion_path(offered, wanted)) == 2
        registry.add_converter("location", "a", "c", lambda v: v, cost=0.5)
        path = registry.conversion_path(offered, wanted)
        assert [(c.source_representation, c.target_representation)
                for c in path] == [("a", "c")]

    def test_cached_failure_forgotten_when_a_converter_arrives(self, registry):
        offered, wanted = TypeSpec("location", "a"), TypeSpec("location", "b")
        assert registry.conversion_path(offered, wanted) is None
        registry.add_converter("location", "a", "b", lambda v: v)
        assert len(registry.conversion_path(offered, wanted)) == 1

    def test_subtype_defined_after_a_lookup_is_seen(self, registry):
        offered = TypeSpec("beacon-fix", "geometric")
        wanted = TypeSpec("location", "geometric")
        with pytest.raises(TypeError_):
            registry.conversion_path(offered, wanted)  # not defined yet
        registry.define("beacon-fix")
        assert registry.conversion_path(offered, wanted) is None
        assert registry.ancestors("beacon-fix") == ["beacon-fix"]
        registry.register(ContextType("beacon-fix", parent="location"))
        assert registry.conversion_path(offered, wanted) == []
        assert registry.ancestors("beacon-fix") == ["beacon-fix", "location"]

    def test_cycle_after_re_registration_raises_on_every_call(self, registry):
        registry.define("fix", parent="gps-position")
        offered = TypeSpec("fix", "geometric")
        wanted = TypeSpec("location", "geometric")
        assert registry.conversion_path(offered, wanted) == []
        registry.register(ContextType("location", parent="fix"))
        for _ in range(2):
            with pytest.raises(TypeError_, match="cycle"):
                registry.ancestors("fix")
            with pytest.raises(TypeError_, match="cycle"):
                registry.conversion_path(offered, wanted)

    def test_subject_rule_runs_on_every_call(self, registry):
        bound = TypeSpec("location", "symbolic", "bob")
        assert registry.conversion_path(bound, bound.bind("bob")) == []
        assert registry.conversion_path(bound, bound.bind("john")) is None
        assert registry.conversion_path(bound.bind(None),
                                        bound.bind("john")) == []

    def test_mutating_a_returned_chain_does_not_poison_the_memo(self, registry):
        registry.add_converter("location", "a", "b", lambda v: v)
        offered, wanted = TypeSpec("location", "a"), TypeSpec("location", "b")
        path = registry.conversion_path(offered, wanted)
        path.clear()
        assert len(registry.conversion_path(offered, wanted)) == 1
        registry.conversion_path(offered, offered).append("junk")
        assert registry.conversion_path(offered, offered) == []
        registry.ancestors("gps-position").reverse()
        assert registry.ancestors("gps-position") == ["gps-position",
                                                      "location"]


class TestStandardRegistry:
    def test_core_types_present(self):
        reg = standard_registry()
        for name in ("presence", "location", "path", "temperature",
                     "printer-status", "occupancy"):
            assert reg.known(name)

    def test_gps_is_location(self):
        assert standard_registry().is_subtype("gps-position", "location")

    def test_converter_apply(self):
        converter = Converter("t", "a", "b", lambda v: v * 2)
        assert converter.apply(21) == 42
