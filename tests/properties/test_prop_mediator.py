"""Property-based pub/sub invariants: delivery completeness and filtering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import (
    AndFilter,
    MatchAll,
    NotFilter,
    OrFilter,
    SubjectFilter,
    TypeFilter,
    filter_from_spec,
)
from repro.events.mediator import EventMediator
from repro.net.transport import FixedLatency, Network
from tests.events.sinks import acking_sink

TYPES = ["location", "temperature", "presence"]
SUBJECTS = ["bob", "john", "ada"]


@st.composite
def filters(draw, depth=0):
    options = ["all", "type", "subject"]
    if depth < 2:
        options += ["and", "or", "not"]
    kind = draw(st.sampled_from(options))
    if kind == "all":
        return MatchAll()
    if kind == "type":
        return TypeFilter(draw(st.sampled_from(TYPES)))
    if kind == "subject":
        return SubjectFilter(draw(st.sampled_from(SUBJECTS)))
    if kind == "not":
        return NotFilter(draw(filters(depth=depth + 1)))
    parts = [draw(filters(depth=depth + 1))
             for _ in range(draw(st.integers(1, 3)))]
    return AndFilter(parts) if kind == "and" else OrFilter(parts)


event_specs = st.lists(
    st.tuples(st.sampled_from(TYPES), st.sampled_from(SUBJECTS),
              st.integers(0, 100)),
    min_size=0, max_size=20)


def run_stream(event_list, event_filter, one_time=False):
    """Publish a stream; return (delivered values, expected values)."""
    net = Network(latency_model=FixedLatency(0.1), seed=1)
    net.add_host("h")
    guids = GuidFactory(seed=2)
    mediator = EventMediator(guids.mint(), "h", net, "r")
    subscriber, inbox = acking_sink(guids, net, host="h")
    mediator.add_subscription(subscriber.guid, event_filter,
                              one_time=one_time)
    events = []
    for type_name, subject, value in event_list:
        event = ContextEvent(TypeSpec(type_name, "repr", subject), value,
                             mediator.guid, net.scheduler.now)
        events.append(event)
        mediator.publish(event)
    net.scheduler.run_until_idle()
    delivered = [message.payload["event"]["value"] for message in inbox
                 if message.kind == "event"]
    expected = [event.value for event in events
                if event_filter.matches(event)]
    return delivered, expected


class TestDeliveryCompleteness:
    @given(event_specs, filters())
    @settings(max_examples=150, deadline=None)
    def test_exactly_matching_events_delivered_in_order(self, event_list,
                                                        event_filter):
        delivered, expected = run_stream(event_list, event_filter)
        assert delivered == expected

    @given(event_specs, filters())
    @settings(max_examples=100, deadline=None)
    def test_one_time_delivers_first_match_only(self, event_list,
                                                event_filter):
        delivered, expected = run_stream(event_list, event_filter,
                                         one_time=True)
        assert delivered == expected[:1]

    @given(filters(), event_specs)
    @settings(max_examples=100, deadline=None)
    def test_filter_spec_round_trip_preserves_matching(self, event_filter,
                                                       event_list):
        restored = filter_from_spec(event_filter.to_spec())
        guids = GuidFactory(seed=3)
        source = guids.mint()
        for type_name, subject, value in event_list:
            event = ContextEvent(TypeSpec(type_name, "repr", subject),
                                 value, source, 0.0)
            assert event_filter.matches(event) == restored.matches(event)
