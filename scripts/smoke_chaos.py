#!/usr/bin/env python
"""Chaos smoke gate: reliable delivery must mask a seeded fault schedule.

Two identical deployments run the same seeded scenario — Bob walking the
building while one location provider is crashed mid-walk. The *chaos* run
additionally suffers a 35% message-loss episode spanning the crash. The
gate asserts:

* **exactly-once observable delivery**: after both runs quiesce, every
  subscribed CAA's delivered event log (as a multiset of event contents) is
  identical between the lossless baseline and the chaos run — the ack/retry
  transport plus receiver dedup recovered every lost message and introduced
  zero duplicates;
* **bounded recovery**: each CAA's stream resumes within a bounded gap of
  the provider crash (lease expiry + lease/2 + repair + next movement);
* the retry machinery actually carried the load (``net.retry.attempts`` > 0
  in the chaos run, with recoveries observed), the mediators' unacked
  windows among it (``net.retry.attempts{kind="event"}`` > 0), and no
  reliable delivery exhausted its budget;
* **cumulative acks**: a lossless burst to one subscriber is answered
  with at most one ``event-ack`` per four ``event`` deliveries, so a
  regression to an ack per delivery fails the gate (the scenario above
  cannot pin this: its subscribers receive isolated events 5 sim-units
  apart, and an event alone in its ack delay is acked alone);
* **failure-detector convergence**: a SCINET node crashed silently is
  ejected by its neighbours' heartbeat detectors, leaving the survivors
  with the same membership and replicated directory an oracle ``fail()``
  call produces.

Exits non-zero on any failure, so CI can gate on it. Usage::

    PYTHONPATH=src python scripts/smoke_chaos.py
"""

import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro import SCI  # noqa: E402
from repro.core.api import SCIConfig  # noqa: E402
from repro.core.types import TypeSpec  # noqa: E402
from repro.entities.entity import ContextAwareApplication  # noqa: E402
from repro.events.event import ContextEvent  # noqa: E402
from repro.events.filters import TypeFilter  # noqa: E402
from repro.faults.monitor import StreamProbe  # noqa: E402
from repro.net.transport import FixedLatency, Network  # noqa: E402
from repro.overlay.scinet import SCINet  # noqa: E402
from repro.query.model import QueryBuilder  # noqa: E402

SEED = 8
LOSS_RATE = 0.35
LOSS_DURATION = 40.0
#: recovery bound: lease (10) + lease/2 + repair + the next walk leg
MAX_RECOVERY = 60.0
#: the batching check's burst: events, and sim-units between publishes
BURST = 64
BURST_GAP = 0.1


def check(condition, label):
    status = "ok" if condition else "FAIL"
    print(f"smoke-chaos: {status} — {label}")
    return bool(condition)


class Recorder(ContextAwareApplication):
    """Keeps every event it consumes, for the checks to read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.events = []

    def on_event(self, event, sub_id):
        self.events.append(event)


def event_log(app):
    """The app's delivered events as a content multiset.

    Timestamps are delivery-path-dependent (a retransmitted upstream hop
    delays a derived event's publication), so equality is over what was
    delivered, not when: zero silent loss and zero duplicates mean the two
    multisets match exactly.
    """
    def freeze(value):
        if isinstance(value, dict):
            return tuple(sorted((k, freeze(v)) for k, v in value.items()))
        if isinstance(value, list):
            return tuple(freeze(v) for v in value)
        return value

    return Counter((e.type_name, e.representation, str(e.subject),
                    freeze(e.value)) for e in app.events)


def run_scenario(with_loss):
    sci = SCI(config=SCIConfig(seed=SEED, lease_duration=10.0,
                               latency_model=FixedLatency(1.0)))
    sci.create_range("livingstone", places=["livingstone"], hosts=["pc"])
    sensors = sci.add_door_sensors("livingstone")
    sci.add_wlan_detector("livingstone")
    sci.add_person("bob", room="corridor", device_host="bob-dev")
    apps = [sci.create_application(name, host="pc", app_class=Recorder)
            for name in ("monitor", "dashboard")]
    sci.run(5)
    for index, app in enumerate(apps):
        app.submit_query(QueryBuilder(f"owner-{index}")
                         .subscribe("location", "topological", subject="bob")
                         .build())
    sci.run(5)
    probes = [StreamProbe(app, "location") for app in apps]

    sci.walk("bob", "L10.01")
    sci.run(30)
    crash_at = sci.now
    sci.injector.crash(sensors["door:corridor--L10.01"])
    if with_loss:
        sci.injector.loss_episode(LOSS_RATE, duration=LOSS_DURATION)
    sci.run(20)  # lease expiry + lease/2 + configuration repair
    # the walk to L10.02 exits through the crashed door (unsensed) and
    # enters through a surviving one — the first post-repair delivery
    for room in ("L10.02", "corridor", "L10.02"):
        sci.walk("bob", room)
        sci.run(30)
    # quiesce: the loss episode is long over; let retransmissions drain
    sci.run(120)
    return sci, apps, probes, crash_at


def chaos_vs_baseline():
    ok = True
    print("smoke-chaos: baseline run (crash only)...")
    base_sci, base_apps, _, _ = run_scenario(with_loss=False)
    print(f"smoke-chaos: chaos run (crash + {LOSS_RATE:.0%} loss for "
          f"{LOSS_DURATION:.0f})...")
    sci, apps, probes, crash_at = run_scenario(with_loss=True)

    for base_app, app in zip(base_apps, apps):
        base_log, log = event_log(base_app), event_log(app)
        missing = base_log - log
        extra = log - base_log
        ok &= check(not missing,
                    f"{app.name}: zero silent loss "
                    f"({sum(log.values())} events delivered)")
        ok &= check(not extra, f"{app.name}: zero duplicate deliveries")
        if missing or extra:
            print(f"smoke-chaos:   missing={dict(missing)}")
            print(f"smoke-chaos:   extra={dict(extra)}")

    for app, probe in zip(apps, probes):
        recovery = probe.recovery_time(crash_at)
        ok &= check(recovery is not None and recovery < MAX_RECOVERY,
                    f"{app.name}: stream recovered "
                    f"{'%.1f' % recovery if recovery is not None else 'never'}"
                    f" after the crash (< {MAX_RECOVERY:.0f})")

    metrics = sci.network.obs.metrics
    attempts = metrics.counter("net.retry.attempts")
    retries = attempts.total()
    recovered = metrics.counter("net.retry.recovered").total()
    ok &= check(retries > 0, f"retransmissions carried the episode "
                             f"({retries:.0f} net.retry.attempts)")
    ok &= check(attempts.value(kind="event") > 0,
                f"the unacked windows retransmitted "
                f"({attempts.value(kind='event'):.0f} of them kind=event)")
    ok &= check(recovered > 0, f"retried requests were answered "
                               f"({recovered:.0f} net.retry.recovered)")
    exhausted = sum(sci.range(name).mediator.deliveries_exhausted
                    for name in sci.ranges)
    ok &= check(exhausted == 0,
                "no reliable delivery exhausted its retry budget")
    return ok


def ack_batching():
    print(f"smoke-chaos: a lossless burst of {BURST} events to one app...")
    sci = SCI(config=SCIConfig(seed=SEED, latency_model=FixedLatency(1.0)))
    mediator = sci.create_range("livingstone", places=["livingstone"],
                                hosts=["pc"]).mediator
    app = sci.create_application("reader", host="pc", app_class=Recorder)
    sci.run(5)
    mediator.add_subscription(app.guid, TypeFilter("tick"))
    before = Counter(sci.network.stats.by_kind)
    for n in range(BURST):
        mediator.publish(ContextEvent(TypeSpec("tick", "raw", "burst"), n,
                                      mediator.guid, sci.now))
        sci.run(BURST_GAP)
    sci.run(20)
    sent = Counter(sci.network.stats.by_kind)
    sent.subtract(before)
    ok = check([e.value for e in app.events] == list(range(BURST)),
               "the burst arrived once each, in order")
    ok &= check(4 * sent["event-ack"] <= sent["event"],
                f"acks are cumulative ({sent['event-ack']} event-ack for "
                f"{sent['event']} event sent)")
    ok &= check(mediator.unacked() == 0, "the unacked window drained")
    return ok


def fd_convergence():
    print("smoke-chaos: heartbeat failure detection vs oracle membership...")
    ok = True

    def overlay(failure_detection):
        net = Network(latency_model=FixedLatency(1.0), seed=5)
        sci = SCINet(net, failure_detection=failure_detection,
                     fd_interval=5.0, fd_timeout=15.0)
        nodes = [sci.create_node(f"h{i}", range_name=f"range-{i}",
                                 owner_cs_hex=f"cs-{i}",
                                 places=[f"room-{i}"]) for i in range(6)]
        net.scheduler.run_for(30)
        return net, sci, nodes

    net_fd, sci_fd, nodes_fd = overlay(failure_detection=True)
    nodes_fd[2].crash()  # silent: only the heartbeat silence reveals it
    net_fd.scheduler.run_for(60)

    net_or, sci_or, nodes_or = overlay(failure_detection=False)
    sci_or.fail(nodes_or[2].guid.hex)  # the oracle ablation
    net_or.scheduler.run_for(60)

    ok &= check(sci_fd.fd_removals == 1,
                "the detector ejected exactly the crashed node")
    ok &= check(sci_fd.size() == sci_or.size() == 5,
                f"membership converged ({sci_fd.size()} nodes)")
    fd_dirs = [dict(node.directory) for node in sci_fd.nodes()]
    or_dirs = [dict(node.directory) for node in sci_or.nodes()]
    ok &= check(all(d == or_dirs[0] for d in fd_dirs + or_dirs),
                "replicated directory identical to the oracle outcome")
    ok &= check(all("room-2" not in d for d in fd_dirs),
                "the dead range's places were retracted")
    return ok


def main() -> int:
    ok = chaos_vs_baseline()
    ok &= ack_batching()
    ok &= fd_convergence()
    if not ok:
        print("smoke-chaos: FAIL")
        return 1
    print("smoke-chaos: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
