"""Unit tests for the partitioned scheduler's engine mechanics.

The equivalence suites (``tests/parallel``, the Hypothesis property) prove
whole-run invariance; these tests pin the individual mechanisms that
invariance is built from — consistent lane assignment, lookahead
validation, the causality guards, control-lane barrier semantics and
lane-local clocks — so a regression fails here with a mechanism's name on
it rather than as a digest mismatch.
"""

import zlib

import pytest

from repro.net.sim import CausalityError, Scheduler
from repro.net.transport import FixedLatency, Network, TransportError

POOL = tuple(f"host-{i}" for i in range(16))


def make_sched(partitions, lookahead=1.0):
    sched = Scheduler(partitions=partitions, lookahead=lookahead)
    for host in POOL:
        sched.register_host(host)
    return sched


def hosts_on_lane(sched, lane_index):
    return [host for host in POOL if sched.lane_of(host) == lane_index]


# -- construction and topology ------------------------------------------------


def test_partition_count_validation():
    with pytest.raises(ValueError):
        Scheduler(partitions=0)
    with pytest.raises(ValueError):
        Scheduler(partitions=2)  # no lookahead
    with pytest.raises(ValueError):
        Scheduler(partitions=2, lookahead=0.0)
    # single lane needs no lookahead: there is nothing to overtake
    assert Scheduler(partitions=1).partitions == 1


def test_lane_assignment_is_consistent_hash():
    sched = make_sched(4)
    for host in POOL:
        assert sched.lane_of(host) == zlib.crc32(host.encode("utf-8")) % 4
    # re-registration is idempotent and keeps the original rank
    first = sched.register_host(POOL[0])
    assert sched.register_host(POOL[0]) == first == 0


def test_every_lane_is_populated():
    sched = make_sched(4)
    assert {sched.lane_of(host) for host in POOL} == {0, 1, 2, 3}


# -- network wiring -----------------------------------------------------------


def test_network_builds_substrate_with_model_lookahead():
    net = Network(latency_model=FixedLatency(2.5), partitions=4)
    assert isinstance(net.scheduler, Scheduler)
    assert net.scheduler.partitions == 4
    assert net.scheduler.lookahead == 2.5


def test_network_rejects_scheduler_and_partitions_together():
    with pytest.raises(TransportError):
        Network(scheduler=Scheduler(), partitions=2)


def test_network_rejects_zero_lookahead_model():
    class FreeLatency(FixedLatency):
        def min_latency(self):
            return 0.0

    with pytest.raises(ValueError):
        Network(latency_model=FreeLatency(1.0), partitions=2)


def test_substrate_binds_to_at_most_one_network():
    net = Network(latency_model=FixedLatency(1.0), partitions=2)
    with pytest.raises(TransportError):
        Network(scheduler=net.scheduler)


# -- causality guards ---------------------------------------------------------


def test_send_from_foreign_lane_raises():
    sched = make_sched(2)
    foreign = hosts_on_lane(sched, 1)[0]
    mine = hosts_on_lane(sched, 0)[0]

    def smuggle():
        # executing on lane 0, pretending to send as a lane-1 host
        sched.schedule_delivery(foreign, mine, 2.0, lambda: None)

    sched.schedule_delivery(mine, mine, 1.0, smuggle)
    with pytest.raises(CausalityError, match="horizon exchange"):
        sched.run_until_idle()


def test_cross_lane_delivery_below_horizon_raises():
    sched = make_sched(2, lookahead=1.0)
    source = hosts_on_lane(sched, 0)[0]
    target = hosts_on_lane(sched, 1)[0]

    def lie_about_latency():
        # a delay below the lookahead the latency model promised
        sched.schedule_delivery(source, target, 0.25, lambda: None)

    sched.schedule_delivery(source, source, 1.0, lie_about_latency)
    with pytest.raises(CausalityError, match="min_latency"):
        sched.run_until_idle()


def test_external_and_control_context_may_send_for_any_host():
    sched = make_sched(2)
    got = []
    source = hosts_on_lane(sched, 0)[0]
    target = hosts_on_lane(sched, 1)[0]
    # external (setup) context: no executing lane, no restriction
    sched.schedule_delivery(source, target, 1.0, got.append, "setup")
    # control context: a barrier callback drives a host send
    sched.schedule(2.0, lambda: sched.schedule_delivery(
        target, source, 1.0, got.append, "control"))
    sched.run_until_idle()
    assert got == ["setup", "control"]


# -- control barriers and lane clocks ----------------------------------------


@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_control_events_are_barriers(partitions):
    """A control event at t=2 is observed by every host event after it and
    no host event before it, in every partitioning."""
    sched = make_sched(partitions)
    state = {"flag": False}
    seen = {}
    for i, host in enumerate(POOL):
        when = 1.0 if i % 2 == 0 else 3.0
        sched.schedule_delivery(
            host, host, when,
            lambda h=host: seen.__setitem__(h, state["flag"]))
    sched.schedule(2.0, lambda: state.__setitem__("flag", True))
    sched.run_until_idle()
    for i, host in enumerate(POOL):
        assert seen[host] is (i % 2 == 1)


def test_now_is_lane_local_inside_callbacks():
    sched = make_sched(4)
    observed = []
    for i, host in enumerate(POOL[:4]):
        when = 1.0 + i
        sched.schedule_delivery(host, host, when,
                                lambda w=when: observed.append(
                                    (w, sched.now)))
    sched.run_until_idle()
    assert all(now == when for when, now in observed)
    assert sched.now == 4.0


def test_run_for_and_run_until_advance_time_when_idle():
    sched = make_sched(2)
    assert sched.run_for(5.0) == 5.0
    assert sched.now == 5.0
    assert sched.run_until(7.5) == 7.5
    with pytest.raises(ValueError):
        sched.run_until(2.0)


def test_events_beyond_max_time_stay_queued():
    sched = make_sched(2)
    fired = []
    host = POOL[0]
    sched.schedule_delivery(host, host, 1.0, fired.append, "early")
    sched.schedule_delivery(host, host, 10.0, fired.append, "late")
    sched.run_for(5.0)
    assert fired == ["early"]
    assert sched.pending == 1
    sched.run_until_idle()
    assert fired == ["early", "late"]
    assert sched.pending == 0


def test_runaway_guard():
    sched = make_sched(1)

    def rearm():
        sched.schedule(1.0, rearm)

    sched.schedule(1.0, rearm)
    with pytest.raises(RuntimeError, match="runaway"):
        sched.run_until_idle(max_events=50)


def test_pending_sums_all_lanes():
    sched = make_sched(4)
    for host in POOL[:8]:
        sched.schedule_delivery(host, host, 1.0, lambda: None)
    timer = sched.schedule(2.0, lambda: None)  # control lane
    assert sched.pending == 9
    timer.cancel()
    assert sched.pending == 8
    sched.run_until_idle()
    assert sched.pending == 0
    assert sched.events_processed == 8
