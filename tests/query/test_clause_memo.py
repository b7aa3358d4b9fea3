"""The clause memo: each distinct clause text is parsed once, and a memoised
result is exactly what a fresh parse returns.

The four clause parsers (What, Where, When, Which) sit behind one bounded
``lru_cache`` (:mod:`repro.core.memo`). These tests compare every memoised
result with the unmemoised parser (``__wrapped__``), on hand-picked texts
and on every clause text the four benchmark workloads send; check that a
bad text raises on every call and is never stored; that the memo holds at
most ``DECODE_MEMO`` texts; and that a wire query whose clause is not a
string is still refused at arrival.
"""

import functools
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import SCI, SCIConfig
from repro.core.errors import LocationError, QueryError
from repro.core.memo import DECODE_MEMO
from repro.net.transport import FunctionProcess
from repro.query import CLAUSE_PARSERS, QueryBuilder

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
WORKLOADS = ("campus_steady", "lookalike_churn", "query_storm",
             "range_federation")
CLAUSES = tuple(CLAUSE_PARSERS)

VALID = {
    "what": ["type:printer", "named:P1", "pattern:location",
             "pattern:location[symbolic]@bob", "  type: printer "],
    "where": ["anywhere", "me", "room:L10.01", "point:1.5,-2.0",
              "within(room:L10)", "near(entity:bob, 5.0)",
              " within( room:L10 ) "],
    "when": ["now", "at(50)", "after(5.123456789)",
             "enters(bob, L10.01) until(600)", "now until(1234567.5)"],
    "which": ["any", "", ";;", "reachable; available; no-queue; closest-to(me)",
              "quality(rating>=0.25); best-quality(rating)"],
}
INVALID = {
    "what": ["", "kind:x", "pattern:", "type:", "pattern:a b"],
    "where": ["", "nowhere", "near(me)", "room:", "within(room:L10",
              "near(me, 0)"],
    "when": ["", "later", "at(.)", "at(1e999)", "until(5)", "after(-1)"],
    "which": ["fastest", "closest-to()", "quality(rating)", "quality(x<y)"],
}
ERROR = {"what": QueryError, "where": LocationError, "when": QueryError,
         "which": QueryError}
#: distinct valid texts, one per integer
NUMBERED = {"what": "type:t{}", "where": "room:r{}", "when": "at({})",
            "which": "best-quality(q{})"}


def _fresh(parser):
    """The unmemoised parse behind ``parser``."""
    if inspect.ismethod(parser):
        return functools.partial(parser.__wrapped__, parser.__self__)
    return parser.__wrapped__


@pytest.fixture(autouse=True)
def empty_memo():
    for parser in CLAUSE_PARSERS.values():
        parser.cache_clear()
    yield
    for parser in CLAUSE_PARSERS.values():
        parser.cache_clear()


def _workload_wires(workload):
    """The wire form of every query the workload's seed-1 plan submits,
    built as the benchmark builds them."""
    if str(E2E) not in sys.path:
        sys.path.append(str(E2E))
    import deployment
    import generate

    plan = generate.generate(workload, 1)
    builder = deployment.Deployment(plan)
    builder.sci = SimpleNamespace(query=QueryBuilder)
    return [builder._build_query(row).to_wire()
            for batch in plan["batches"] for row in batch["queries"]]


@pytest.mark.parametrize("clause", CLAUSES)
def test_memoised_parse_equals_a_fresh_parse(clause):
    parser = CLAUSE_PARSERS[clause]
    for text in VALID[clause]:
        first = parser(text)
        assert first == _fresh(parser)(text)
        assert parser(text) is first
    info = parser.cache_info()
    assert (info.misses, info.hits) == (len(VALID[clause]),
                                        len(VALID[clause]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_clause_text_parses_as_fresh(workload):
    wires = _workload_wires(workload)
    assert wires
    for clause in CLAUSES:
        CLAUSE_PARSERS[clause].cache_clear()  # building parsed some texts
        parser, fresh = CLAUSE_PARSERS[clause], _fresh(CLAUSE_PARSERS[clause])
        texts = [wire[clause] for wire in wires]
        for text in texts:
            assert parser(text) == fresh(text)
        distinct = len(set(texts))
        assert distinct < DECODE_MEMO
        info = parser.cache_info()
        assert (info.misses, info.hits) == (distinct, len(texts) - distinct)


@pytest.mark.parametrize("clause", CLAUSES)
def test_a_bad_text_raises_every_time_and_is_never_memoised(clause):
    parser = CLAUSE_PARSERS[clause]
    for text in INVALID[clause]:
        for _ in range(3):
            with pytest.raises(ERROR[clause]):
                parser(text)
        with pytest.raises(ERROR[clause]):
            _fresh(parser)(text)
    assert parser.cache_info().currsize == 0


@pytest.mark.parametrize("clause", CLAUSES)
def test_the_memo_holds_at_most_its_bound(clause):
    parser, text = CLAUSE_PARSERS[clause], NUMBERED[clause]
    for number in range(DECODE_MEMO + 100):
        parser(text.format(number))
    info = parser.cache_info()
    assert (info.currsize, info.maxsize) == (DECODE_MEMO, DECODE_MEMO)
    # least recently used first out: the newest text is held, the oldest
    # is parsed again
    parser(text.format(DECODE_MEMO + 99))
    assert parser.cache_info().hits == info.hits + 1
    parser(text.format(0))
    assert parser.cache_info().misses == info.misses + 1


@pytest.mark.parametrize("value", [["anywhere"], {"a": 1}], ids=["list", "dict"])
@pytest.mark.parametrize("clause", CLAUSES)
def test_a_wire_clause_that_is_not_text_is_refused(clause, value):
    sci = SCI(config=SCIConfig(seed=43))
    sci.create_range("r", places=["L10"], hosts=["lab-pc"])
    sci.create_application("app", host="lab-pc")
    sci.run(10)
    sci.network.ensure_host("probe-host")
    replies = []
    probe = FunctionProcess(sci.guids.mint(), "probe-host", sci.network,
                            replies.append, name="probe")
    wire = (sci.query("app").profiles_of_type("device").with_id("probe:1")
            .build().to_wire())
    wire[clause] = value
    probe.send(sci.range("r").guid, "query", {"query": wire})
    sci.run(5)
    malformed = sci.network.obs.metrics.get("net.messages.malformed")
    assert malformed.by_label() == {"query": 1}
    assert [(reply.kind, reply.payload["ok"]) for reply in replies] == \
        [("query-ack", False)]
