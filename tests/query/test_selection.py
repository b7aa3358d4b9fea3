"""Which clauses: filters, rankings, the CAPA selection semantics."""

import pytest

from repro.core.errors import QueryError
from repro.query import selection
from repro.query.selection import Candidate, Criterion, WhichClause


def candidate(name, distance=10.0, reachable=True, available=True,
              queue_length=0, quality=None):
    return Candidate(entity_id=name.lower(), name=name, room="x",
                     distance=distance, reachable=reachable,
                     available=available, queue_length=queue_length,
                     quality=quality or {})


@pytest.fixture
def printers():
    """The Figure-7 printer states at John's query time."""
    return [
        candidate("P1", distance=8.0, available=False, queue_length=1),  # busy
        candidate("P2", distance=8.0, available=False),                  # no paper
        candidate("P3", distance=12.0, reachable=False),                 # locked
        candidate("P4", distance=15.0),                                  # free
    ]


class TestCriteria:
    def test_filters(self):
        assert Criterion("reachable").keep(candidate("x"))
        assert not Criterion("reachable").keep(candidate("x", reachable=False))
        assert not Criterion("available").keep(candidate("x", available=False))
        assert not Criterion("no-queue").keep(candidate("x", queue_length=2))
        assert Criterion("any").keep(candidate("x", reachable=False))

    def test_rankings(self):
        assert Criterion("closest-to", "me").sort_key(candidate("x", distance=3)) == 3
        assert Criterion("min-queue").sort_key(candidate("x", queue_length=2)) == 2.0
        best = Criterion("best-quality", "accuracy")
        assert best.sort_key(candidate("x", quality={"accuracy": 5})) == -5

    def test_argument_required(self):
        with pytest.raises(QueryError):
            Criterion("closest-to")
        with pytest.raises(QueryError):
            Criterion("best-quality")

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            Criterion("fastest")

    def test_a_quality_contract_is_parsed_once(self, monkeypatch):
        parses = []
        parse = selection._parse_quality_contract
        monkeypatch.setattr(selection, "_parse_quality_contract",
                            lambda argument: parses.append(argument)
                            or parse(argument))
        contract = Criterion("quality", "accuracy<=5")
        for accuracy in (1.0, 5.0, 9.0) * 10:
            contract.quality_satisfied({"accuracy": accuracy})
        assert [contract.keep(candidate("x", quality={"accuracy": accuracy}))
                for accuracy in (1.0, 5.0, 9.0)] == [True, True, False]
        assert not contract.quality_satisfied({})
        assert parses == ["accuracy<=5"]
        # the parsed triple is no part of the value: equal, hashable, frozen
        assert contract == Criterion("quality", "accuracy<=5")
        assert hash(contract) == hash(Criterion("quality", "accuracy<=5"))
        assert "_contract" not in repr(contract)


class TestWhichClause:
    def test_john_gets_p4(self, printers):
        which = WhichClause.parse("reachable; available; no-queue; closest-to(me)")
        assert which.select(printers).name == "P4"

    def test_bob_gets_p1_when_all_free(self):
        fresh = [candidate("P1", 8.0), candidate("P2", 8.0),
                 candidate("P4", 15.0)]
        which = WhichClause.parse("reachable; available; closest-to(me)")
        assert which.select(fresh).name == "P1"  # tie with P2; stable order

    def test_all_filtered_returns_none(self, printers):
        which = WhichClause.parse("no-queue; available; reachable")
        busy = [candidate("x", available=False)]
        assert which.select(busy) is None

    def test_any_keeps_everything(self, printers):
        assert len(WhichClause.any().apply(printers)) == 4

    def test_secondary_ranking_breaks_ties(self):
        pool = [candidate("B", distance=5.0, queue_length=3),
                candidate("A", distance=5.0, queue_length=1)]
        which = WhichClause.parse("closest-to(me); min-queue")
        assert which.select(pool).name == "A"

    def test_quality_ranking(self):
        pool = [candidate("coarse", quality={"accuracy": 1.0}),
                candidate("fine", quality={"accuracy": 9.0})]
        which = WhichClause.parse("best-quality(accuracy)")
        assert which.select(pool).name == "fine"

    def test_location_argument_extracted(self):
        which = WhichClause.parse("reachable; closest-to(entity:bob)")
        assert which.location_argument == "entity:bob"
        assert WhichClause.any().location_argument is None


class TestTextForm:
    @pytest.mark.parametrize("text", [
        "any", "reachable", "reachable; available",
        "closest-to(me)", "reachable; no-queue; closest-to(room:L10.01)",
        "best-quality(accuracy); min-queue",
    ])
    def test_round_trip(self, text):
        which = WhichClause.parse(text)
        assert WhichClause.parse(str(which)).criteria == which.criteria

    def test_empty_is_any(self):
        assert WhichClause.parse("").criteria == WhichClause.any().criteria

    def test_malformed_rejected(self):
        with pytest.raises(QueryError):
            WhichClause.parse("closest-to")  # missing argument
