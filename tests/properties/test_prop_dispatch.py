"""Equivalence property: mediator dispatch == linear scan, exactly.

The mediator deduplicates structurally identical filters into shared
filter-table nodes, finds candidate nodes through a dispatch index that
is a pure pre-filter, and fans results out from a per-publish batch. For
ANY random filter tree — including the non-analysable Or/Not/attribute
shapes that fall to the index's residual list, one-time subscriptions,
retained replay to late subscribers and interleaved unsubscribes that
exercise node reclamation — it must hand the same events to the
same subscriptions in the same order as the linear reference scan
(``tests/events/reference_scan.py``). Duplicated filters are drawn
deliberately often (a small closed pool of types/subjects/sources) so
almost every run shares nodes. The property drives the two mediators
through an identical random op sequence of subscribes, unsubscribes and
publishes, recording every ``_deliver`` call synchronously, and requires
the two delivery logs to be byte-identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import (
    AndFilter,
    AttributeFilter,
    MatchAll,
    NotFilter,
    OrFilter,
    SourceFilter,
    SubjectFilter,
    TypeFilter,
)
from repro.events.mediator import EventMediator
from repro.net.transport import FixedLatency, FunctionProcess, Network
from tests.events.reference_scan import ReferenceScanMediator

TYPES = ["location", "temperature", "presence"]
SUBJECTS = ["bob", "john", "ada"]
REPRESENTATIONS = ["repr", "symbolic"]
#: stable hexes so SourceFilters can actually match published events
SOURCE_POOL = GuidFactory(seed=99)
SOURCES = [SOURCE_POOL.mint() for _ in range(3)]


@st.composite
def filters(draw, depth=0):
    options = ["all", "type", "type+repr", "subject", "source", "attr"]
    if depth < 2:
        options += ["and", "or", "not"]
    kind = draw(st.sampled_from(options))
    if kind == "all":
        return MatchAll()
    if kind == "type":
        return TypeFilter(draw(st.sampled_from(TYPES)))
    if kind == "type+repr":
        return TypeFilter(draw(st.sampled_from(TYPES)),
                          draw(st.sampled_from(REPRESENTATIONS)))
    if kind == "subject":
        return SubjectFilter(draw(st.sampled_from(SUBJECTS)))
    if kind == "source":
        return SourceFilter(draw(st.sampled_from(SOURCES)).hex)
    if kind == "attr":
        return AttributeFilter("value", draw(st.sampled_from(["<", ">", "=="])),
                               draw(st.integers(0, 100)))
    if kind == "not":
        return NotFilter(draw(filters(depth=depth + 1)))
    parts = [draw(filters(depth=depth + 1))
             for _ in range(draw(st.integers(1, 3)))]
    return AndFilter(parts) if kind == "and" else OrFilter(parts)


#: op stream: subscribe / publish / unsubscribe-by-ordinal / remove-owner
ops = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), filters(), st.booleans(),
                  st.sampled_from(["owner-a", "owner-b", None])),
        st.tuples(st.just("pub"), st.sampled_from(TYPES),
                  st.sampled_from(REPRESENTATIONS), st.sampled_from(SUBJECTS),
                  st.integers(0, 100), st.integers(0, 2)),
        st.tuples(st.just("unsub"), st.integers(0, 30)),
        st.tuples(st.just("unown"), st.sampled_from(["owner-a", "owner-b"])),
    ),
    min_size=0, max_size=40)


def run_ops(op_list, mediator_class):
    """Apply an op sequence to one mediator; return the delivery log.

    Log entries are (subscription ordinal, event seq) tuples recorded at
    ``_deliver`` time — before any network latency — so ordering reflects
    fan-out order alone.
    """
    net = Network(latency_model=FixedLatency(0.1), seed=5)
    net.add_host("h")
    guids = GuidFactory(seed=17)
    mediator = mediator_class(guids.mint(), "h", net, "prop")
    sink = FunctionProcess(guids.mint(), "h", net, lambda message: None)
    subs = []
    log = []

    original_deliver = mediator._deliver

    def recording_deliver(subscription, event):
        log.append((subscription.sub_id,
                    (event.type_name, event.representation, event.subject,
                     event.value, event.source.hex)))
        original_deliver(subscription, event)

    mediator._deliver = recording_deliver

    for op in op_list:
        if op[0] == "sub":
            _, event_filter, one_time, owner = op
            subs.append(mediator.add_subscription(
                sink.guid, event_filter, one_time=one_time, owner=owner))
        elif op[0] == "pub":
            _, type_name, representation, subject, value, source_index = op
            event = ContextEvent(
                TypeSpec(type_name, representation, subject), value,
                SOURCES[source_index], net.scheduler.now)
            mediator.publish(event)
        elif op[0] == "unsub":
            _, index = op
            if subs:
                mediator.remove_subscription(subs[index % len(subs)].sub_id)
        else:
            mediator.remove_subscriptions_of(op[1])
    net.scheduler.run_until_idle()
    # sub_ids come from a process-global counter, so translate them to the
    # per-run subscription ordinal before comparing across the two runs
    ordinal_of = {subscription.sub_id: position
                  for position, subscription in enumerate(subs)}
    return [(ordinal_of[sub_id], event_key) for sub_id, event_key in log]


class TestDispatchEquivalence:
    @given(ops)
    @settings(max_examples=400, deadline=None)
    def test_delivery_identical_to_linear_scan(self, op_list):
        assert (run_ops(op_list, EventMediator)
                == run_ops(op_list, ReferenceScanMediator))
