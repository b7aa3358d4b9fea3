"""Heartbeat failure detection on SCINET nodes.

The detector replaces the oracle ``SCINet.fail`` call: a crashed node's
leaf neighbours notice its silence and eject it, repairing membership and
retracting its directory entries exactly as the oracle path would.
"""

import pytest

from repro.net.transport import FixedLatency, Network
from repro.overlay.scinet import SCINet


FD_INTERVAL = 5.0
FD_TIMEOUT = 15.0


def build(n=6, failure_detection=True, seed=5):
    net = Network(latency_model=FixedLatency(1.0), seed=seed)
    sci = SCINet(net, failure_detection=failure_detection,
                 fd_interval=FD_INTERVAL, fd_timeout=FD_TIMEOUT)
    nodes = [sci.create_node(f"h{i}", range_name=f"range-{i}",
                             owner_cs_hex=f"cs-{i}", places=[f"room-{i}"])
             for i in range(n)]
    net.scheduler.run_for(30)  # let announcements replicate
    return net, sci, nodes


class TestQuiescentInvariant:
    def test_never_ejects_live_nodes(self):
        # The headline invariant: in a fault-free quiesced deployment the
        # detector never ejects a live node, however long it runs.
        net, sci, nodes = build()
        net.scheduler.run_for(40 * FD_INTERVAL)
        assert sci.size() == len(nodes)
        assert sci.fd_removals == 0
        suspicions = net.obs.metrics.counter("overlay.fd.suspicions")
        assert suspicions.value() == 0
        heartbeats = net.obs.metrics.counter("overlay.fd.heartbeats")
        assert heartbeats.value() > 0  # the detector was actually probing

    def test_detector_off_by_default(self):
        net, sci, nodes = build(failure_detection=False)
        assert all(node._fd_timer is None for node in nodes)
        # scheduler must go idle: no periodic probes keeping it alive
        net.scheduler.run_until_idle()


class TestCrashDetection:
    def test_crashed_node_ejected(self):
        net, sci, nodes = build()
        victim = nodes[2]
        victim.crash()          # silent: the management plane is not told
        assert sci.size() == len(nodes)  # membership still stale
        net.scheduler.run_for(FD_TIMEOUT + 3 * FD_INTERVAL)
        assert sci.size() == len(nodes) - 1
        assert sci.node(victim.guid.hex) is None
        assert sci.fd_removals >= 1
        for survivor in sci.nodes():
            assert victim.guid not in survivor.table

    def test_detection_converges_to_oracle_directory(self):
        # FD-driven ejection and an oracle fail() call must leave the
        # survivors with the same replicated directory.
        net_a, sci_a, nodes_a = build(seed=7)
        victim_a = nodes_a[1]
        victim_a.crash()
        net_a.scheduler.run_for(FD_TIMEOUT + 6 * FD_INTERVAL)

        net_b, sci_b, nodes_b = build(seed=7, failure_detection=False)
        sci_b.fail(nodes_b[1].guid.hex)
        net_b.scheduler.run_for(FD_TIMEOUT + 6 * FD_INTERVAL)

        assert sci_a.size() == sci_b.size()
        for node_a, node_b in zip(sci_a.nodes(), sci_b.nodes()):
            assert node_a.directory == node_b.directory
        assert all("room-1" not in node.directory for node in sci_a.nodes())

    def test_multiple_crashes_all_detected(self):
        net, sci, nodes = build(n=8)
        for victim in (nodes[1], nodes[4]):
            victim.crash()
        net.scheduler.run_for(2 * FD_TIMEOUT + 6 * FD_INTERVAL)
        assert sci.size() == 6
        assert sci.fd_removals >= 2

    def test_crashed_node_stops_probing(self):
        net, sci, nodes = build()
        victim = nodes[0]
        victim.crash()
        assert victim._fd_timer is None
        # even a crash() that forgot to disable the detector self-heals:
        # the tick guard notices the process is detached
        other = nodes[3]
        other.detach()  # detach without disabling
        assert other._fd_timer is not None
        net.scheduler.run_for(2 * FD_INTERVAL)
        assert other._fd_timer is None

    def test_graceful_leave_fires_no_suspicion(self):
        net, sci, nodes = build()
        sci.leave(nodes[2].guid.hex)
        net.scheduler.run_for(10 * FD_INTERVAL)
        assert sci.fd_removals == 0
        assert sci.size() == len(nodes) - 1
