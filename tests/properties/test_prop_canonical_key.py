"""Composed canonical keys are the rendered ones, byte for byte.

``EventFilter.canonical_key()`` of an And/Or/Not is assembled from the
children's cached keys instead of rendering the whole canonical spec again.
The keys name the mediator's filter-table nodes, so the composition must
not move a single byte: for drawn
And/Or/Not trees — nested same-op trees that flatten, duplicated children
that collapse, single-child junctions that disappear, ints beside equal
floats — the composed key equals ``spec_key(canonical_spec())``, at the
root and at every node below it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.filters import (
    AndFilter,
    AttributeFilter,
    MatchAll,
    NotFilter,
    OrFilter,
    SubjectFilter,
    TypeFilter,
    filter_from_spec,
    spec_key,
)

leaves = st.one_of(
    st.just(MatchAll()),
    st.builds(TypeFilter, st.sampled_from(["location", "temperature"]),
              st.sampled_from([None, "symbolic"])),
    st.builds(SubjectFilter, st.sampled_from(["bob", "ada", 7, None])),
    st.builds(AttributeFilter, st.sampled_from(["value", "floor"]),
              st.sampled_from(["==", "<", "contains"]),
              st.sampled_from([1, 1.0, True, "1", None, [1, "a"], {"k": 2}])),
)

trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(AndFilter, st.lists(children, min_size=1, max_size=4)),
        st.builds(OrFilter, st.lists(children, min_size=1, max_size=4)),
        st.builds(NotFilter, children)),
    max_leaves=12)


def nodes(tree):
    yield tree
    for part in getattr(tree, "parts", ()):
        yield from nodes(part)
    if isinstance(tree, NotFilter):
        yield from nodes(tree.inner)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_composed_key_is_the_rendered_key(tree):
    # fresh copy: keys cached while the root was composed must not be what
    # the per-node check below reads back
    for node in nodes(filter_from_spec(tree.to_spec())):
        assert node.canonical_key() == spec_key(node.canonical_spec())
    assert tree.canonical_key() == spec_key(tree.canonical_spec())
    for node in nodes(tree):
        assert node.canonical_key() == spec_key(node.canonical_spec())


@settings(max_examples=200, deadline=None)
@given(st.lists(leaves, min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_order_nesting_and_duplication_do_not_move_the_key(parts, rng):
    shuffled = list(parts)
    rng.shuffle(shuffled)
    for junction in (AndFilter, OrFilter):
        flat = junction(parts)
        nested = junction([junction(shuffled[:1]),
                           junction(shuffled + shuffled[-1:])])
        assert flat.canonical_key() == nested.canonical_key()
        assert flat == nested and hash(flat) == hash(nested)
