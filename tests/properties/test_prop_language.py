"""Property-based round-trips for the textual languages."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.location.language import LocationExpr, parse_location
from repro.query.model import Query, QueryMode, WhatClause
from repro.query.selection import Criterion, WhichClause
from repro.query.temporal import WhenClause
from repro.query.language import query_from_xml, query_to_xml

simple_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-",
    min_size=1, max_size=12)
coords = st.floats(min_value=-1000, max_value=1000,
                   allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0.1, max_value=500,
                  allow_nan=False, allow_infinity=False)


@st.composite
def location_exprs(draw, depth=0):
    options = ["anywhere", "me", "room", "point", "entity"]
    if depth < 2:
        options += ["within", "near"]
    kind = draw(st.sampled_from(options))
    if kind == "anywhere":
        return LocationExpr.anywhere()
    if kind == "me":
        return LocationExpr.me()
    if kind == "room":
        return LocationExpr.room(draw(simple_names))
    if kind == "entity":
        return LocationExpr.entity(draw(simple_names))
    if kind == "point":
        return LocationExpr.at_point(draw(coords), draw(coords))
    inner = draw(location_exprs(depth=depth + 1))
    if kind == "within":
        return LocationExpr.within(inner)
    return LocationExpr.near(inner, draw(radii))


class TestLocationLanguage:
    @given(location_exprs())
    @settings(max_examples=200)
    def test_str_parse_round_trip(self, expr):
        assert parse_location(str(expr)) == expr


#: every finite float, subnormals and -0.0 included
times = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def when_clauses(draw):
    kind = draw(st.sampled_from(["now", "at", "after", "enters"]))
    expires = draw(st.one_of(st.none(), times))
    if kind == "now":
        return WhenClause("now", expires=expires)
    if kind == "at":
        return WhenClause.at(draw(times), expires)
    if kind == "after":
        return WhenClause.after(draw(times.map(abs)), expires)
    return WhenClause.when_enters(draw(simple_names), draw(simple_names),
                                  expires)


class TestWhenClause:
    @given(when_clauses())
    @settings(max_examples=200)
    def test_round_trip(self, when):
        """Exact: a time keeps every bit through its text (and the wire)."""
        assert WhenClause.parse(str(when)) == when


@st.composite
def which_clauses(draw):
    criteria = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["reachable", "available", "no-queue", "min-queue", "any"]))
        criteria.append(Criterion(kind))
    if draw(st.booleans()):
        criteria.append(Criterion("closest-to", "me"))
    if not criteria:
        return WhichClause.any()
    return WhichClause(tuple(criteria))


@st.composite
def queries(draw):
    mode = draw(st.sampled_from(list(QueryMode)))
    if mode in (QueryMode.SUBSCRIPTION, QueryMode.ONE_TIME):
        what = WhatClause.for_pattern(draw(simple_names),
                                      draw(simple_names),
                                      draw(st.one_of(st.none(), simple_names)))
    elif mode == QueryMode.PROFILE:
        what = draw(st.sampled_from([
            WhatClause.named(draw(simple_names)),
            WhatClause.entity_type(draw(simple_names))]))
    else:
        what = WhatClause.entity_type(draw(simple_names))
    owner = draw(simple_names)
    return Query(owner_id=owner, what=what,
                 where=draw(location_exprs()), when=draw(when_clauses()),
                 which=draw(which_clauses()), mode=mode,
                 query_id=f"{owner}:{draw(st.integers(1, 10**6))}")


class TestQueryXML:
    @given(queries())
    @settings(max_examples=200)
    def test_figure6_round_trip(self, query):
        restored = query_from_xml(query_to_xml(query))
        assert restored.to_wire() == query.to_wire()
