"""Request/response correlation and timeout behaviour."""

import pytest

from repro.net.message import Message
from repro.net.rpc import RequestManager
from repro.net.transport import FunctionProcess, Process


class Echo(Process):
    """Replies to every 'ask' with 'answer'."""

    def on_message(self, message):
        if message.kind == "ask":
            self.reply(message, "answer", {"echo": message.payload})


class Asker(Process):
    def __init__(self, guid, host_id, network):
        super().__init__(guid, host_id, network)
        self.requests = RequestManager(self)
        self.replies = []
        self.timeouts = []
        self.other = []

    def ask(self, recipient, payload=None, timeout=10.0, **kwargs):
        return self.requests.request(recipient, "ask", payload,
                                     timeout=timeout, **kwargs)

    def on_message(self, message):
        if self.requests.dispatch_reply(message):
            return
        self.other.append(message)


@pytest.fixture
def pair(network, guids):
    echo = Echo(guids.mint(), "host-a", network)
    asker = Asker(guids.mint(), "host-b", network)
    return echo, asker


class TestRoundTrip:
    def test_reply_invokes_callback(self, network, pair):
        echo, asker = pair
        asker.ask(echo.guid, {"q": 1},
                               on_reply=asker.replies.append)
        network.scheduler.run_until_idle()
        assert len(asker.replies) == 1
        assert asker.replies[0].payload == {"echo": {"q": 1}}
        assert asker.requests.completed == 1

    def test_reply_not_passed_to_normal_handler(self, network, pair):
        echo, asker = pair
        asker.ask(echo.guid, on_reply=asker.replies.append)
        network.scheduler.run_until_idle()
        assert asker.other == []

    def test_outstanding_tracks_in_flight(self, network, pair):
        echo, asker = pair
        asker.ask(echo.guid)
        assert asker.requests.outstanding == 1
        network.scheduler.run_until_idle()
        assert asker.requests.outstanding == 0

    def test_multiple_concurrent_requests(self, network, pair):
        echo, asker = pair
        for index in range(5):
            asker.ask(echo.guid, {"index": index},
                                   on_reply=asker.replies.append)
        network.scheduler.run_until_idle()
        indices = sorted(reply.payload["echo"]["index"]
                         for reply in asker.replies)
        assert indices == [0, 1, 2, 3, 4]


class TestTimeouts:
    def test_timeout_fires_when_no_reply(self, network, guids):
        asker = Asker(guids.mint(), "host-a", network)
        silent = FunctionProcess(guids.mint(), "host-b", network,
                                 lambda message: None)
        asker.ask(silent.guid,
                               on_timeout=lambda: asker.timeouts.append(1))
        network.scheduler.run_until_idle()
        assert asker.timeouts == [1]
        assert asker.requests.timeouts == 1

    def test_timeout_respects_custom_window(self, network, guids):
        asker = Asker(guids.mint(), "host-a", network)
        silent = FunctionProcess(guids.mint(), "host-b", network,
                                 lambda message: None)
        asker.ask(silent.guid, timeout=3.0,
                               on_timeout=lambda: asker.timeouts.append(network.scheduler.now))
        network.scheduler.run_until_idle()
        assert asker.timeouts == [3.0]

    def test_reply_cancels_timeout(self, network, pair):
        echo, asker = pair
        asker.requests.request(echo.guid, "ask",
                               on_reply=asker.replies.append,
                               on_timeout=lambda: asker.timeouts.append(1))
        network.scheduler.run_until_idle()
        assert asker.replies and not asker.timeouts

    def test_late_reply_after_timeout_dropped(self, network, guids):
        # Echo on a slow path: timeout shorter than round trip.
        echo = Echo(guids.mint(), "host-a", network)
        asker = Asker(guids.mint(), "host-b", network)
        asker.ask(echo.guid, timeout=0.5,
                               on_reply=asker.replies.append,
                               on_timeout=lambda: asker.timeouts.append(1))
        network.scheduler.run_until_idle()
        assert asker.timeouts == [1]
        assert asker.replies == []  # late answer must not double-resolve

    def test_cancel_all_suppresses_everything(self, network, pair):
        echo, asker = pair
        asker.requests.request(echo.guid, "ask",
                               on_reply=asker.replies.append,
                               on_timeout=lambda: asker.timeouts.append(1))
        asker.requests.cancel_all()
        network.scheduler.run_until_idle()
        assert asker.replies == [] and asker.timeouts == []

    def test_non_positive_timeout_rejected(self, network, pair):
        """``request()`` validates its own ``timeout=`` and ``retries=``."""
        echo, asker = pair
        for bad in ({"timeout": 0.0}, {"timeout": -1.0}, {"retries": -1}):
            with pytest.raises(ValueError):
                asker.ask(echo.guid, **bad)
        network.scheduler.run_until_idle()
        assert asker.requests.outstanding == 0
        assert network.stats.sent == 0  # rejected before anything is sent


class TestDispatch:
    def test_unrelated_message_not_consumed(self, network, pair):
        echo, asker = pair
        plain = Message(sender=echo.guid, recipient=asker.guid, kind="info",
                        msg_id=1)
        assert asker.requests.dispatch_reply(plain) is False

    def test_unknown_reply_not_consumed(self, network, pair):
        echo, asker = pair
        stray = Message(sender=echo.guid, recipient=asker.guid,
                        kind="answer", msg_id=1, reply_to=999999)
        assert asker.requests.dispatch_reply(stray) is False
