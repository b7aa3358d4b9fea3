"""Who hears a link-local announcement, under any history of the table.

A state machine attaches, detaches and re-attaches processes on two
machines, switches their listening off and on (``Network.listen(process,
on)`` — what a released and re-admitted Range Service does), and broadcasts.
After every broadcast the processes that received it, in delivery order,
must be exactly the model's answer: attached, on the sender's machine,
declared the kind, listening, not the sender — **in attach order**, however
often anyone left the table and came back. An announce with no such
recipient must raise ``net.messages.unheard`` for its kind by one and
deliver nothing.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.ids import GuidFactory
from repro.net.message import BROADCAST
from repro.net.transport import FixedLatency, Network, Process

HOSTS = ("host-a", "host-b")
KINDS = ("up", "down")
DECLARATIONS = ((), ("up",), ("down",), ("up", "down"))


class Peer(Process):
    """Records what it hears in a log shared by the whole machine."""

    def __init__(self, guid, host_id, network, declared, heard):
        self.listens_for = declared  # before attach files it
        self.listening = True
        self.heard = heard
        super().__init__(guid, host_id, network)

    def on_message(self, message):
        self.heard.append((self, message.kind))


class LinkLocalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.network = Network(latency_model=FixedLatency(1.0), seed=3)
        for host in HOSTS:
            self.network.add_host(host)
        self.guids = GuidFactory(seed=3)
        self.heard = []
        #: the model: attached peers in attach order, and everyone ever made
        self.attached = []
        self.peers = []
        self.unheard = {}

    def pick(self, index, among=None):
        among = self.peers if among is None else among
        return among[index % len(among)]

    @rule(host=st.sampled_from(HOSTS), declared=st.sampled_from(DECLARATIONS))
    def attach_new(self, host, declared):
        peer = Peer(self.guids.mint(), host, self.network, declared, self.heard)
        self.peers.append(peer)
        self.attached.append(peer)

    @precondition(lambda self: self.attached)
    @rule(index=st.integers(0, 50))
    def detach(self, index):
        peer = self.pick(index, self.attached)
        peer.detach()
        self.attached.remove(peer)

    @precondition(lambda self: len(self.peers) > len(self.attached))
    @rule(index=st.integers(0, 50))
    def reattach(self, index):
        peer = self.pick(index, [p for p in self.peers
                                 if p not in self.attached])
        self.network.attach(peer)
        peer.listening = True  # attaching files every declared kind
        self.attached.append(peer)

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 50))
    def unlisten(self, index):
        peer = self.pick(index)
        self.network.listen(peer, on=False)
        peer.listening = False

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 50))
    def listen(self, index):
        peer = self.pick(index)
        self.network.listen(peer)
        if peer in self.attached:  # a detached process files nothing
            peer.listening = True

    @precondition(lambda self: self.attached)
    @rule(index=st.integers(0, 50), kind=st.sampled_from(KINDS))
    def broadcast(self, index, kind):
        sender = self.pick(index, self.attached)
        expected = [peer for peer in self.attached
                    if peer.host_id == sender.host_id
                    and kind in peer.listens_for and peer.listening
                    and peer is not sender]
        if not expected:
            self.unheard[kind] = self.unheard.get(kind, 0) + 1
        del self.heard[:]
        delivered = self.network.stats.delivered
        sender.send(BROADCAST, kind)
        self.network.scheduler.run_until_idle()
        assert self.heard == [(peer, kind) for peer in expected]
        assert self.network.stats.delivered - delivered == len(expected)

    @invariant()
    def unheard_counter_matches(self):
        counter = self.network.obs.metrics.get("net.messages.unheard")
        assert counter.by_label() == self.unheard

    @invariant()
    def table_holds_only_attached_listeners(self):
        for (host, kind), filed in self.network._listeners.items():
            assert list(filed.values()) == [
                peer for peer in self.attached
                if peer.host_id == host and kind in peer.listens_for
                and peer.listening]


TestLinkLocal = LinkLocalMachine.TestCase
TestLinkLocal.settings = settings(max_examples=150, stateful_step_count=40,
                                  deadline=None)
