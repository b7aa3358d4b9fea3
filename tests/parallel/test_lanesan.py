"""LaneSan, executed: the differential scenario is lane-race-free under the
sanitizer (with untouched digests), and a deliberately unstaged topology
mutation from lane context is caught with both stack sites.

The seeded violation is the canonical hazard the horizon barrier exists to
prevent: one lane detaches a process (a write to the shared process table)
while, in the same round, another lane routes a message to that same guid
(a read of the same table entry). Whether the detach or the lookup "wins"
depends on lane execution order — exactly the partition-layout dependence
the substrate promises cannot exist.
"""

import pytest

from repro.analysis.lanesan import LaneRaceError, LaneSan, SanDict
from repro.net.transport import FixedLatency, Network, Process
from tests.parallel.scenarios import run_scenario


class Sink(Process):
    """Absorbs anything (the victim must survive a ping if it wins)."""

    def on_message(self, message):
        pass


class Saboteur(Process):
    """On command, mutates shared network topology from its own lane."""

    def __init__(self, guid, host_id, network, victim_guid):
        super().__init__(guid, host_id, network, name="saboteur")
        self.victim_guid = victim_guid

    def on_message(self, message):
        if message.kind == "detach-now":
            # the seeded bug: an unstaged write to net.processes from lane
            # context (the fix would be an on_quiesce/control-lane barrier)
            self.network.detach(self.victim_guid)


class Poker(Process):
    """On command, sends to the victim — a same-round read of the entry."""

    def __init__(self, guid, host_id, network, victim_guid):
        super().__init__(guid, host_id, network, name="poker")
        self.victim_guid = victim_guid

    def on_message(self, message):
        if message.kind == "poke":
            self.send(self.victim_guid, "ping", {})


def _hosts_on_distinct_lanes(net, count=2):
    """First ``count`` hosts that land on pairwise-distinct lanes."""
    chosen, lanes = [], set()
    for host in sorted(net.hosts, key=lambda h: h.host_id):
        lane = net.scheduler.lane_of(host.host_id)
        if lane not in lanes:
            lanes.add(lane)
            chosen.append(host.host_id)
        if len(chosen) == count:
            return chosen
    raise AssertionError("scenario needs hosts on distinct lanes")


def test_seeded_unstaged_detach_is_caught():
    net = Network(latency_model=FixedLatency(1.0), seed=3,
                  partitions=2, sanitize=True)
    for i in range(6):
        net.add_host(f"h{i}")
    host_a, host_b = _hosts_on_distinct_lanes(net)

    victim = Sink(net.guids.mint(), host_a, net, name="victim")
    saboteur = Saboteur(net.guids.mint(), host_a, net, victim.guid)
    poker = Poker(net.guids.mint(), host_b, net, victim.guid)

    # control-lane self-sends: the deliveries land at t=5.0 on each
    # process's own lane, so both handlers execute in one horizon round
    net.scheduler.schedule_at(
        4.0, lambda: saboteur.send(saboteur.guid, "detach-now", {}))
    net.scheduler.schedule_at(
        4.0, lambda: poker.send(poker.guid, "poke", {}))
    net.run_until_idle()

    conflicts = net.sanitizer.conflicts()
    assert conflicts, "LaneSan missed the seeded lane race"
    hit = next(c for c in conflicts if c.label == "net.processes"
               and c.fieldname == str(victim.guid))
    assert {hit.first.lane, hit.second.lane} == {
        net.scheduler.lane_of(host_a), net.scheduler.lane_of(host_b)}
    assert "write" in (hit.first.kind, hit.second.kind)
    # both stack sites point into the transport, through distinct entry
    # points (detach vs the send-path lookup)
    assert "transport.py" in hit.first.site
    assert "transport.py" in hit.second.site
    with pytest.raises(LaneRaceError) as err:
        net.sanitizer.assert_clean()
    assert "net.processes" in str(err.value)


@pytest.mark.parametrize("partitions", [2, 4])
def test_differential_scenario_clean_under_lanesan(partitions):
    reference = run_scenario(partitions=1)
    result = run_scenario(partitions=partitions, sanitize=True)
    assert result["race_conflicts"] == []
    # the sanitizer observes without perturbing: digests stay identical
    assert result["digest"] == reference["digest"]
    assert result["per_host"] == reference["per_host"]


def test_default_network_records_without_conflicts():
    """The default Network runs on one lane: the sanitizer sees every
    access (the lane path is live, not bypassed) and no pair can conflict."""
    net = Network(latency_model=FixedLatency(1.0), seed=7, sanitize=True)
    net.add_host("h0")
    net.add_host("h1")
    victim = Sink(net.guids.mint(), "h0", net, name="victim")
    poker = Poker(net.guids.mint(), "h1", net, victim.guid)
    net.scheduler.schedule_at(1.0, lambda: poker.send(poker.guid, "poke", {}))
    net.run_until_idle()
    assert net.scheduler.partitions == 1
    assert net.sanitizer.records > 0
    assert net.sanitizer.conflicts() == []


def test_sandict_preserves_dict_semantics():
    san = LaneSan(scheduler=object())   # no current_context: inert
    wrapped = san.wrap_dict({"a": 1, "b": 2}, "t")
    assert isinstance(wrapped, SanDict)
    assert wrapped == {"a": 1, "b": 2}
    wrapped["c"] = 3
    assert list(wrapped) == ["a", "b", "c"]     # insertion order kept
    assert wrapped.pop("a") == 1
    assert wrapped.setdefault("d", 9) == 9
    assert sorted(wrapped.items()) == [("b", 2), ("c", 3), ("d", 9)]
    assert dict(wrapped) == {"b": 2, "c": 3, "d": 9}
