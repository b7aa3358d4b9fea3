"""Per-machine lease renewal under churn and loss.

Components start, stop and crash on two machines while every message —
offers, registrations, renewals, acks, notices — is dropped with
probability 0.2. Three things must hold for any step sequence and seed:

* **the list is the machine**: every heartbeat a Range Service composes
  names exactly the components on its host that are running and hold this
  range's ``register-ack`` at that instant;
* **no live component is evicted while its machine is connected**: a
  lease only runs out on a running, registered component when no renewal
  from its machine reached the Registrar for a whole lease (every one of
  them was lost);
* **membership converges**: once the loss ends, within a lease, half a
  lease (the eviction grace) and one retry window of the last step the
  Registrar holds exactly the running components that believe they are
  registered. A component whose
  registration handshake is still being retransmitted, or ended less than
  one renewal ago (a retransmitted ``register`` can be answered from the
  Registrar's reply cache after the record it made has lapsed; the first
  renewal tells the component), is on neither side of that comparison yet.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import GuidFactory
from repro.entities.entity import ContextEntity
from repro.entities.profile import Profile
from repro.net.transport import FixedLatency, Network
from repro.server.range_service import RangeService
from repro.server.registrar import Registrar

LEASE = 12.0
#: the Registrar evicts one and a half renewal periods (lease / 3) after a
#: deadline
GRACE = LEASE / 2
#: a renewal's one retransmission leaves 3.5 after the tick and takes a hop
RETRY_WINDOW = 4.5
HOSTS = ("host-b", "host-c")

steps = st.lists(
    st.tuples(st.sampled_from(["start", "start", "stop", "crash"]),
              st.integers(0, 7), st.integers(1, 9)),
    min_size=1, max_size=14)


class Member(ContextEntity):
    joined_at = None

    def on_registered(self):
        self.joined_at = self.now


class Machines:
    def __init__(self, seed):
        self.network = network = Network(latency_model=FixedLatency(1.0),
                                         seed=seed)
        network.add_host("host-a")
        self.guids = GuidFactory(seed=seed ^ 0x5A)
        self.registrar = Registrar(
            self.guids.mint(), "host-a", network, "prop",
            context_server=self.guids.mint(),
            event_mediator=self.guids.mint(),
            lease_duration=LEASE)
        self.services = {}
        for host in HOSTS:
            network.add_host(host)
            self.services[host] = service = RangeService(
                self.guids.mint(), host, network, "prop", self.registrar.guid)
            self._check_lists_of(service)
        self.members = []
        #: heartbeats the list check inspected
        self.inspected = 0
        #: (arrival time, sending daemon) of every heartbeat that got through
        self.arrivals = []
        handle = self.registrar._handle_heartbeat

        def spy(message):
            self.arrivals.append((self.registrar.now, message.sender))
            handle(message)

        self.registrar._handle_heartbeat = spy
        self.registrar.on_departure = self._check_departure

    def running(self, member):
        return self.network.process(member.guid) is member

    def _check_lists_of(self, service):
        send = service.send

        def checked(recipient, kind, payload, **kwargs):
            if kind != "heartbeat":
                return send(recipient, kind, payload, **kwargs)
            self.inspected += 1
            expected = {m.guid.hex for m in self.members
                        if m.host_id == service.host_id and self.running(m)
                        and m.registered}
            assert set(payload["entities"]) == expected
            assert len(payload["entities"]) == len(expected)
            return send(recipient, kind, payload, **kwargs)

        service.send = checked

    def _check_departure(self, record, reason):
        member = next(m for m in self.members
                      if m.guid.hex == record.entity_hex)
        if not (reason == "lease-expired" and self.running(member)
                and member.registered):
            return
        # a heartbeat that arrives a retry window after the join was
        # composed with the member in the group, so it would have renewed it
        daemon, now = self.services[member.host_id].guid, self.registrar.now
        renewing = [at for at, sender in self.arrivals
                    if sender == daemon and at + LEASE >= now
                    and at >= member.joined_at + RETRY_WINDOW]
        assert not renewing, f"{member.name} evicted at {now} despite {renewing}"

    def apply(self, op, index):
        if op == "start":
            member = Member(Profile(self.guids.mint(),
                                    f"member-{len(self.members)}"),
                            HOSTS[index % len(HOSTS)], self.network)
            self.members.append(member)
            member.start()
        elif self.members:
            member = self.members[index % len(self.members)]
            if self.running(member):
                member.stop() if op == "stop" else member.crash()


@settings(max_examples=40, deadline=None)
@given(plan=steps, seed=st.integers(0, 2**16))
def test_membership_follows_the_machines(plan, seed):
    machines = Machines(seed)
    network = machines.network
    network.drop_rate = 0.2
    for op, index, gap in plan:
        machines.apply(op, index)
        network.scheduler.run_for(gap)
    network.drop_rate = 0.0
    network.scheduler.run_for(LEASE + GRACE + RETRY_WINDOW)
    renewed_since = network.scheduler.now - LEASE / 3.0 - 2.0
    settled = [m for m in machines.members if not m.requests.outstanding
               and (m.joined_at is None or m.joined_at <= renewed_since)]
    held = {m.name for m in settled
            if machines.registrar.registered(m.guid.hex)}
    believed = {m.name for m in settled
                if machines.running(m) and m.registered}
    assert held == believed
    # the list check saw every heartbeat that went on the wire, and a member
    # held since before the last renewal interval was listed in at least one
    assert machines.inspected == network.stats.by_kind["heartbeat"]
    assert machines.inspected or not believed
