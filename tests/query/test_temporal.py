"""When clauses: triggers, expiry, text round-trips."""

import pytest

from repro.core.errors import QueryError
from repro.query.model import Query, WhatClause
from repro.query.temporal import WhenClause


class TestConstruction:
    def test_now_immediate(self):
        assert WhenClause.now().immediate

    def test_at_requires_time(self):
        with pytest.raises(QueryError):
            WhenClause("at")

    def test_enters_requires_operands(self):
        with pytest.raises(QueryError):
            WhenClause("enters", entity="bob")

    def test_negative_after_rejected(self):
        with pytest.raises(QueryError):
            WhenClause.after(-5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            WhenClause("someday")


class TestTriggers:
    def test_now_triggers_at_submission(self):
        assert WhenClause.now().trigger_time(10.0) == 10.0

    def test_at_absolute(self):
        assert WhenClause.at(50.0).trigger_time(10.0) == 50.0

    def test_after_relative(self):
        assert WhenClause.after(5.0).trigger_time(10.0) == 15.0

    def test_enters_has_no_time(self):
        when = WhenClause.when_enters("bob", "L10.01")
        assert when.trigger_time(10.0) is None

    def test_matches_entry(self):
        when = WhenClause.when_enters("bob", "L10.01")
        assert when.matches_entry("bob", "L10.01")
        assert not when.matches_entry("bob", "L10.02")
        assert not when.matches_entry("john", "L10.01")
        assert not WhenClause.now().matches_entry("bob", "L10.01")


class TestExpiry:
    def test_no_expiry_never_expires(self):
        assert not WhenClause.now().expired(1e9)

    def test_expired_after_deadline(self):
        when = WhenClause.when_enters("bob", "x", expires=100.0)
        assert not when.expired(99.0)
        assert when.expired(100.1)

    def test_expiry_boundary_is_inclusive(self):
        """At exactly ``expires`` the query is dead: a trigger landing on
        the boundary instant must lose to the expiry, matching what the
        query's own expiry timer decides at the same sim-time."""
        when = WhenClause.when_enters("bob", "x", expires=100.0)
        assert when.expired(100.0)


class TestTextForm:
    # all four kinds, with and without an expiry suffix
    @pytest.mark.parametrize("text", [
        "now", "at(50)", "after(5)", "enters(bob, L10.01)",
        "now until(10)", "at(50) until(60)", "after(5) until(600)",
        "enters(bob, L10.01) until(600)",
    ])
    def test_round_trip(self, text):
        when = WhenClause.parse(text)
        assert WhenClause.parse(str(when)) == when

    @pytest.mark.parametrize("text", [
        "now", "at(50)", "after(5)", "enters(bob, L10.01)",
        "now until(10)", "at(50) until(60)", "after(5) until(600)",
        "enters(bob, L10.01) until(600)",
    ])
    def test_str_is_canonical(self, text):
        assert str(WhenClause.parse(text)) == text

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            WhenClause.parse("")

    def test_bare_until_rejected(self):
        # "until(600)" alone has no condition to expire; it used to be
        # silently accepted as an expiring "now"
        with pytest.raises(QueryError):
            WhenClause.parse("until(600)")

    @pytest.mark.parametrize("bad", ["later", "at()", "enters(bob)",
                                     "after(x)", "  until(5) ",
                                     # the number pattern admits these,
                                     # float does not
                                     "at(.)", "after(1e)", "now until(+-1)",
                                     # non-finite: at(inf) has no wire form
                                     "at(1e999)", "now until(-1e999)"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(QueryError):
            WhenClause.parse(bad)

    @pytest.mark.parametrize("when", [
        WhenClause.at(12345.678), WhenClause.after(5.123456789),
        WhenClause("now", expires=1234567.5),
    ], ids=["at", "after", "until"])
    def test_times_survive_the_wire(self, when):
        query = Query(owner_id="bob", what=WhatClause.entity_type("printer"),
                      when=when, query_id="bob:1")
        assert Query.from_wire(query.to_wire()).when == when

    @pytest.mark.parametrize("time", [float("inf"), float("-inf"),
                                      float("nan")])
    def test_non_finite_times_refused(self, time):
        with pytest.raises(QueryError):
            WhenClause.at(time)
        with pytest.raises(QueryError):
            WhenClause("now", expires=time)
