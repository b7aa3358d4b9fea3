"""Query model: What clauses, modes, wire forms, the builder."""

import pytest

from repro.core.errors import QueryError
from repro.query.model import Query, QueryBuilder, QueryMode, WhatClause


class TestWhatClause:
    def test_entity_type(self):
        what = WhatClause.entity_type("printer")
        assert str(what) == "type:printer"
        assert WhatClause.parse("type:printer") == what

    def test_named(self):
        what = WhatClause.named("bob")
        assert WhatClause.parse(str(what)) == what

    def test_pattern_full(self):
        what = WhatClause.for_pattern("location", "topological", "bob")
        assert str(what) == "pattern:location[topological]@bob"
        assert WhatClause.parse(str(what)) == what

    def test_pattern_minimal(self):
        what = WhatClause.parse("pattern:temperature")
        assert what.pattern.type_name == "temperature"
        assert what.pattern.representation == "any"
        assert what.pattern.subject is None

    def test_pattern_with_repr_only(self):
        what = WhatClause.parse("pattern:temperature[celsius]")
        assert what.pattern.representation == "celsius"

    def test_pattern_with_arrow_subject(self):
        what = WhatClause.parse("pattern:path[rooms]@bob->john")
        assert what.pattern.subject == "bob->john"

    @pytest.mark.parametrize("bad", ["", "gibberish", "type:", "named:",
                                     "pattern:[]"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(QueryError):
            WhatClause.parse(bad)

    def test_kind_validation(self):
        with pytest.raises(QueryError):
            WhatClause("weird", value="x")
        with pytest.raises(QueryError):
            WhatClause("pattern")  # no TypeSpec


class TestQueryWire:
    def test_round_trip(self):
        query = (QueryBuilder("john")
                 .advertisement("printer")
                 .where("within(room:L10)")
                 .when("enters(bob, L10.01) until(600)")
                 .which("reachable; no-queue; closest-to(me)")
                 .with_id("john:1")
                 .build())
        restored = Query.from_wire(query.to_wire())
        assert restored.to_wire() == query.to_wire()

    def test_defaults_fill_missing(self):
        query = Query.from_wire({"query_id": "bob:1", "owner_id": "bob",
                                 "what": "named:john"})
        assert query.where.is_constraint_free
        assert query.when.immediate
        assert query.mode == QueryMode.SUBSCRIPTION

    def test_missing_required_field(self):
        with pytest.raises(QueryError):
            Query.from_wire({"query_id": "bob:1", "owner_id": "bob"})

    @pytest.mark.parametrize("query_id", [None, "", 7])
    def test_an_unnamed_query_has_no_wire_form(self, query_id):
        """The client files its query-ack under the id: the builder names
        nothing, and neither wire direction takes an unnamed query."""
        query = QueryBuilder("a").profiles_of_type("device").build()
        assert query.query_id is None
        with pytest.raises(QueryError):
            query.to_wire()
        wire = QueryBuilder("a").profiles_of_type("device").with_id(
            "a:1").build().to_wire()
        wire["query_id"] = query_id
        with pytest.raises(QueryError):
            Query.from_wire(wire)


class TestBuilder:
    def test_modes(self):
        assert QueryBuilder("o").profile_of("bob").build().mode == QueryMode.PROFILE
        assert QueryBuilder("o").subscribe("location").build().mode == QueryMode.SUBSCRIPTION
        assert QueryBuilder("o").once("location").build().mode == QueryMode.ONE_TIME
        assert QueryBuilder("o").advertisement("printer").build().mode == QueryMode.ADVERTISEMENT

    def test_requires_what(self):
        with pytest.raises(QueryError):
            QueryBuilder("o").build()

    def test_with_id(self):
        query = QueryBuilder("o").profile_of("x").with_id("q-custom").build()
        assert query.query_id == "q-custom"

    def test_accepts_objects_or_strings(self):
        from repro.location.language import LocationExpr
        from repro.query.temporal import WhenClause
        from repro.query.selection import WhichClause
        query = (QueryBuilder("o").subscribe("location")
                 .where(LocationExpr.room("L10.01"))
                 .when(WhenClause.after(5))
                 .which(WhichClause.closest_to())
                 .build())
        assert query.where.name == "L10.01"
        assert query.when.kind == "after"
