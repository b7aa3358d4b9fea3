"""Property: the canonical key order ≡ the plain insertion order, per host.

Hypothesis draws whole workloads — host counts, relay topologies, hop
delays, timer arm/cancel interleavings and a jittered latency model — and
asserts that the canonical per-host event log of the production scheduler
is identical to that of the global ``(time, sequence)`` heap of
:mod:`tests.parallel.single_heap` (jittered latencies make the same-time
cross-origin ties where the two could differ measure-zero).

This generalises ``tests/parallel/test_differential.py`` from one curated
scenario to the space of random relay workloads; shrinking hands back the
smallest message pattern that breaks the equivalence.
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.eventlog import EventLog
from repro.net.transport import Network, Process, UniformLatency
from tests.parallel.single_heap import SingleHeapScheduler

HOST_POOL = tuple(f"m{i}" for i in range(6))


class RelayProcess(Process):
    """Forwards a "hop" message along the path carried in its payload.

    Each hop may also arm a host timer; a process holding a previous timer
    handle cancels it on the next arming — under drawn delays that cancel
    can land before or after the old timer fired, covering both branches
    of lazy cancellation inside the property.
    """

    def __init__(self, guid, host_id, network, index, peers: List["RelayProcess"]):
        super().__init__(guid, host_id, network, name=f"relay{index}")
        self.index = index
        self.peers = peers
        self.hops_seen = 0
        self.ticks = 0
        self._armed = None

    def on_message(self, message) -> None:
        if message.kind != "hop":
            return
        self.hops_seen += 1
        payload = message.payload
        if payload.get("timer"):
            if self._armed is not None:
                self._armed.cancel()
            self._armed = self.network.scheduler.schedule(
                payload["delay"] + 0.5, self._tick)
        path = payload["path"]
        if path:
            nxt = self.peers[path[0] % len(self.peers)]
            self.send(nxt.guid, "hop", {
                "path": path[1:],
                "delay": payload["delay"],
                "timer": payload["timer"],
            })

    def _tick(self) -> None:
        self.ticks += 1


def run_workload(workload: dict, reference_heap: bool) -> Dict[str, object]:
    log = EventLog()
    net = Network(
        scheduler=SingleHeapScheduler() if reference_heap else None,
        latency_model=UniformLatency(
            workload["lat_low"], workload["lat_low"] + workload["lat_spread"]),
        seed=workload["seed"], event_log=log)
    hosts = HOST_POOL[:workload["n_hosts"]]
    for host in hosts:
        net.add_host(host)
    procs: List[RelayProcess] = []
    for i in range(workload["n_procs"]):
        proc = RelayProcess(net.guids.mint(), hosts[i % len(hosts)], net,
                            i, procs)
        procs.append(proc)
    for start, origin, path, delay, timer in workload["messages"]:
        first = procs[origin % len(procs)]
        net.scheduler.schedule_at(start, first.on_message_self, {
            "path": path, "delay": delay, "timer": timer})
    net.run_until_idle()
    return {
        "per_host": log.per_host(),
        "digest": log.digest(),
        "hops": [proc.hops_seen for proc in procs],
        "ticks": [proc.ticks for proc in procs],
        "sent": net.stats.sent,
        "delivered": net.stats.delivered,
        "pending": net.scheduler.pending,
    }


# injecting the first hop goes through a tiny shim so the origin's reaction
# (sends, timers) runs in *its* execution context on every substrate
def _inject(self, payload):
    message = type("Seed", (), {"kind": "hop", "payload": payload})()
    self.on_message(message)


RelayProcess.on_message_self = _inject


workloads = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n_procs": st.integers(3, 10),
    "n_hosts": st.integers(2, len(HOST_POOL)),
    "lat_low": st.floats(0.5, 1.5),
    "lat_spread": st.floats(0.1, 1.0),
    "messages": st.lists(
        st.tuples(
            st.floats(0.0, 20.0),                       # injection time
            st.integers(0, 10**6),                      # origin selector
            st.lists(st.integers(0, 10**6), max_size=6),  # relay path
            st.floats(0.0, 2.0),                        # timer delay part
            st.booleans(),                              # arm a timer?
        ),
        min_size=1, max_size=10),
})


@given(workload=workloads)
@settings(max_examples=30, deadline=None)
def test_production_matches_reference_heap(workload):
    production = run_workload(workload, reference_heap=False)
    reference = run_workload(workload, reference_heap=True)
    assert production["per_host"] == reference["per_host"]
    for key in ("digest", "hops", "ticks", "sent", "delivered", "pending"):
        assert production[key] == reference[key], f"diverged on {key}"
    # all events drained: a live pending count would mean _live leaked
    assert production["pending"] == 0
