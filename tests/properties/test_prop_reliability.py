"""Property-based reliability invariants.

Two equivalences the reliability layer must hold under arbitrary seeded
fault schedules:

* a reliable mediator's subscribers observe the *same* event log under a
  bounded loss episode as under a lossless network — retransmission from
  the unacked windows plus the reassemblers' dedup masks the loss
  completely (exactly-once observable delivery), for several subscribers
  with several overlapping subscriptions each — one message carrying
  several of them — and every window drains;
* heartbeat-driven overlay failure detection converges to the same
  membership and replicated directory as oracle ``fail()`` calls.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.events.filters import SubjectFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.faults.injector import FaultInjector
from repro.net.transport import FixedLatency, Network
from repro.overlay.scinet import SCINet

TYPES = ["location", "temperature"]
SUBJECTS = ["bob", "john"]

#: (type, subject, value) publications, interleaved with time advancing
publications = st.lists(
    st.tuples(st.sampled_from(TYPES), st.sampled_from(SUBJECTS),
              st.integers(0, 99), st.floats(0.0, 5.0)),
    min_size=1, max_size=15)

#: the subscriptions an app holds beside one TypeFilter per type: a
#: duplicate TypeFilter or a subject filter, so one publish can match
#: several subscriptions of one subscriber
extra_filters = st.lists(
    st.one_of(st.sampled_from(TYPES).map(lambda t: ("type", t)),
              st.sampled_from(SUBJECTS).map(lambda s: ("subject", s))),
    min_size=1, max_size=3)


class RecordingApp(ContextAwareApplication):
    """Logs every delivery under the subscription it arrived on."""

    def __init__(self, *args):
        super().__init__(*args)
        self.by_sub = {}

    def on_event(self, event, sub_id):
        self.by_sub.setdefault(sub_id, []).append((str(event.subject),
                                                   event.value))


def matches(spec, type_name, subject):
    kind, key = spec
    return key == (type_name if kind == "type" else subject)


def run_reliable_stream(pubs, seed, loss_rate, loss_duration):
    """One reliable mediator + one subscribed CAA; returns the app's log."""
    network = Network(latency_model=FixedLatency(1.0), seed=seed)
    network.add_host("host-a")
    network.add_host("host-b")
    guids = GuidFactory(seed=seed ^ 0x99)
    mediator = EventMediator(guids.mint(), "host-a", network, "prop",
                             reliable=True, ack_timeout=4.0,
                             delivery_retries=8)
    app = ContextAwareApplication(
        Profile(guids.mint(), "app", entity_class=EntityClass.SOFTWARE),
        "host-b", network)
    app.attach_to_range(guids.mint(), mediator.guid, mediator.guid, "prop")
    mediator.add_subscription(app.guid, TypeFilter("location"))
    mediator.add_subscription(app.guid, TypeFilter("temperature"))
    if loss_rate:
        FaultInjector(network, seed=seed).loss_episode(loss_rate,
                                                       loss_duration)
    for type_name, subject, value, gap in pubs:
        network.scheduler.run_for(gap)
        event = ContextEvent(TypeSpec(type_name, "raw", subject), value,
                             mediator.guid, mediator.now)
        mediator.publish(event)
    network.scheduler.run_until_idle()
    # ordering is guaranteed *per subscription* (per sequence stream), not
    # across subscriptions: group the delivered log by type, which is what
    # each TypeFilter subscription carries
    log = {type_name: [] for type_name in TYPES}
    for e in app.events:
        log[e.type_name].append((str(e.subject), e.value))
    return log


class TestLossMasking:
    @settings(max_examples=25, deadline=None)
    @given(pubs=publications, seed=st.integers(0, 2**16),
           loss_rate=st.floats(0.1, 0.6))
    def test_lossy_log_equals_lossless_log(self, pubs, seed, loss_rate):
        """A bounded loss episode must be invisible in the delivered log:
        same events, same per-subscription order, no duplicates."""
        lossless = run_reliable_stream(pubs, seed, 0.0, 0.0)
        # the episode is finite and far shorter than the cumulative
        # retransmission window, so every delivery must eventually land
        lossy = run_reliable_stream(pubs, seed, loss_rate, 30.0)
        assert lossy == lossless
        # completeness against the publications themselves: every publish
        # matched exactly one subscription, so it must be delivered once,
        # and per-subscription delivery preserves publication order
        for type_name in TYPES:
            assert lossy[type_name] == [
                (s, v) for t, s, v, _ in pubs if t == type_name]


def run_two_subscribers(pubs, extras, seed, loss_rate, loss_duration):
    """One reliable mediator, two apps with one TypeFilter per type plus
    their ``extras`` each; every app's log per subscription (in
    subscription order), the mediator and the network."""
    network = Network(latency_model=FixedLatency(1.0), seed=seed)
    network.add_host("host-a")
    network.add_host("host-b")
    network.add_host("host-c")
    guids = GuidFactory(seed=seed ^ 0x99)
    mediator = EventMediator(guids.mint(), "host-a", network, "prop",
                             reliable=True, ack_timeout=4.0,
                             delivery_retries=8)
    apps = []
    for (name, host), extra in zip((("left", "host-b"), ("right", "host-c")),
                                   extras):
        app = RecordingApp(
            Profile(guids.mint(), name, entity_class=EntityClass.SOFTWARE),
            host, network)
        app.attach_to_range(guids.mint(), mediator.guid, mediator.guid,
                            "prop")
        app.subs = [mediator.add_subscription(
            app.guid, TypeFilter(key) if kind == "type" else
            SubjectFilter(key)).sub_id
            for kind, key in [("type", t) for t in TYPES] + extra]
        apps.append(app)
    if loss_rate:
        FaultInjector(network, seed=seed).loss_episode(loss_rate,
                                                       loss_duration)
    for type_name, subject, value, gap in pubs:
        network.scheduler.run_for(gap)
        mediator.publish(ContextEvent(TypeSpec(type_name, "raw", subject),
                                      value, mediator.guid, mediator.now))
    network.scheduler.run_until_idle()
    logs = [[app.by_sub.get(sub_id, []) for sub_id in app.subs]
            for app in apps]
    return logs, mediator, network


class TestUnackedWindows:
    @settings(max_examples=25, deadline=None)
    @given(pubs=publications, extras=st.tuples(extra_filters, extra_filters),
           seed=st.integers(0, 2**16), loss_rate=st.floats(0.1, 0.6))
    def test_two_subscribers_lossy_equals_lossless(self, pubs, extras, seed,
                                                   loss_rate):
        """Per-subscriber windows and cumulative acks mask a loss episode
        for every subscriber and subscription, also when one message
        carries several subscriptions, and nothing is left unacked once
        the run quiesces."""
        lossless, _, network = run_two_subscribers(pubs, extras, seed,
                                                    0.0, 0.0)
        lossy, mediator, _ = run_two_subscribers(pubs, extras, seed,
                                                 loss_rate, 30.0)
        assert lossy == lossless
        specs = [[("type", t) for t in TYPES] + extra for extra in extras]
        expected = [[[(s, v) for t, s, v, _ in pubs if matches(spec, t, s)]
                     for spec in app_specs] for app_specs in specs]
        assert lossy == expected
        assert mediator.unacked() == 0
        assert mediator.deliveries_exhausted == 0
        # one event message per (publish, subscriber) it matched
        pairs = sum(any(matches(spec, t, s) for spec in app_specs)
                    for t, s, _, _ in pubs for app_specs in specs)
        assert network.stats.by_kind["event"] == pairs


crash_plans = st.lists(st.integers(0, 7), min_size=0, max_size=3,
                       unique=True)


class TestDetectorOracleEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(victims=crash_plans, seed=st.integers(0, 2**16))
    def test_fd_membership_matches_oracle(self, victims, seed):
        """Crashing any subset of nodes silently (heartbeat detection) or
        via the oracle ``fail()`` must converge to identical survivors and
        identical replicated directories."""
        def overlay(failure_detection):
            net = Network(latency_model=FixedLatency(1.0), seed=seed)
            sci = SCINet(net, failure_detection=failure_detection,
                         fd_interval=5.0, fd_timeout=15.0)
            nodes = [sci.create_node(f"h{i}", range_name=f"r{i}",
                                     owner_cs_hex=f"cs-{i}",
                                     places=[f"room-{i}"])
                     for i in range(8)]
            net.scheduler.run_for(30)
            return net, sci, nodes

        net_fd, sci_fd, nodes_fd = overlay(True)
        for index in victims:
            nodes_fd[index].crash()
        net_fd.scheduler.run_for(120)

        net_or, sci_or, nodes_or = overlay(False)
        for index in victims:
            sci_or.fail(nodes_or[index].guid.hex)
        net_or.scheduler.run_for(120)

        fd_members = sorted(node.guid.hex for node in sci_fd.nodes())
        or_members = sorted(node.guid.hex for node in sci_or.nodes())
        assert fd_members == or_members
        fd_dirs = {node.guid.hex: dict(node.directory)
                   for node in sci_fd.nodes()}
        or_dirs = {node.guid.hex: dict(node.directory)
                   for node in sci_or.nodes()}
        assert fd_dirs == or_dirs
        assert sci_fd.fd_removals == len(victims)
