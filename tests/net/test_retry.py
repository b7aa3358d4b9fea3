"""Retransmission under loss: ack/retry, budgets and duplicate suppression.

These tests run the transport with real message loss (downed hosts and
drop-rate episodes) and check the reliability contract end to end:
at-least-once retransmission at the sender plus ``(sender, msg_id)`` dedup
at the receiver yields exactly-once observable delivery.
"""

import random

import pytest

from repro.faults.injector import FaultInjector
from repro.net.message import Message
from repro.net.rpc import RequestManager
from repro.net.transport import FunctionProcess, Process


class CountingEcho(Process):
    """Replies to every 'ask'; counts how often the handler actually ran."""

    def __init__(self, guid, host_id, network):
        super().__init__(guid, host_id, network)
        self.handled = 0

    def on_message(self, message):
        if message.kind == "ask":
            self.handled += 1
            self.reply(message, "answer", {"echo": message.payload})


class RetryingAsker(Process):
    def __init__(self, guid, host_id, network, retries=5, timeout=2.0):
        super().__init__(guid, host_id, network)
        self.requests = RequestManager(self)
        self.retries = retries
        self.timeout = timeout
        self.replies = []
        self.timeouts = []

    def ask(self, recipient, payload=None, **kwargs):
        kwargs.setdefault("timeout", self.timeout)
        kwargs.setdefault("retries", self.retries)
        return self.requests.request(recipient, "ask", payload,
                                     on_reply=self.replies.append,
                                     on_timeout=lambda: self.timeouts.append(
                                         self.scheduler.now),
                                     **kwargs)

    def on_message(self, message):
        self.requests.dispatch_reply(message)


@pytest.fixture
def lossy_pair(network, guids):
    echo = CountingEcho(guids.mint(), "host-a", network)
    asker = RetryingAsker(guids.mint(), "host-b", network)
    return echo, asker


class TestRetryRecovery:
    def test_timeout_retry_eventual_reply(self, network, lossy_pair):
        # Deterministic loss: the echo's host is down for the first attempts
        # and comes back mid-budget; a retransmission must get through.
        echo, asker = lossy_pair
        network.fail_host("host-a")
        network.scheduler.schedule(5.0, network.restore_host, "host-a")
        asker.ask(echo.guid, {"q": 1})
        network.scheduler.run_until_idle()
        assert [r.payload for r in asker.replies] == [{"echo": {"q": 1}}]
        assert asker.timeouts == []
        assert asker.requests.retries >= 1
        assert echo.handled == 1
        recovered = network.obs.metrics.counter("net.retry.recovered")
        assert recovered.value(kind="ask") == 1

    def test_recovery_under_random_loss(self, network, lossy_pair):
        # A bounded loss episode ends well before the retry budget does;
        # every request must eventually be answered, exactly once each.
        echo, asker = lossy_pair
        injector = FaultInjector(network, seed=3)
        injector.loss_episode(0.7, duration=10.0)
        for index in range(10):
            asker.ask(echo.guid, {"index": index})
        network.scheduler.run_until_idle()
        assert asker.timeouts == []
        indices = sorted(r.payload["echo"]["index"] for r in asker.replies)
        assert indices == list(range(10))
        # the handler ran exactly once per request despite retransmissions
        assert echo.handled == 10

    def test_budget_exhaustion_fires_on_timeout_exactly_once(
            self, network, guids):
        asker = RetryingAsker(guids.mint(), "host-b", network,
                              retries=3, timeout=1.0)
        silent = FunctionProcess(guids.mint(), "host-a", network,
                                 lambda message: None)
        asker.ask(silent.guid)
        network.scheduler.run_until_idle()
        assert len(asker.timeouts) == 1
        assert asker.requests.timeouts == 1
        assert asker.requests.retries == 3
        exhausted = network.obs.metrics.counter("net.retry.exhausted")
        assert exhausted.value(kind="ask") == 1

    def test_late_reply_after_exhaustion_suppressed(self, network, lossy_pair):
        # Budget expires while the host is down; the host then returns and
        # would answer a retransmission — but the request is resolved, so
        # no callback fires a second time.
        echo, asker = lossy_pair
        network.fail_host("host-a")
        network.scheduler.schedule(100.0, network.restore_host, "host-a")
        asker.ask(echo.guid, timeout=1.0, retries=2)
        network.scheduler.run_until_idle()
        assert len(asker.timeouts) == 1
        assert asker.replies == []

    def test_cancel_all_with_inflight_retries(self, network, lossy_pair):
        echo, asker = lossy_pair
        network.fail_host("host-a")
        asker.ask(echo.guid, timeout=1.0, retries=10)
        network.scheduler.run_for(5.0)   # several retransmissions queued
        assert asker.requests.retries >= 1
        asker.requests.cancel_all()
        network.restore_host("host-a")
        network.scheduler.run_until_idle()
        assert asker.replies == [] and asker.timeouts == []
        assert asker.requests.outstanding == 0

    def test_zero_budget_preserves_fire_and_expire(self, network, guids):
        asker = RetryingAsker(guids.mint(), "host-b", network,
                              retries=0, timeout=1.0)
        silent = FunctionProcess(guids.mint(), "host-a", network,
                                 lambda message: None)
        asker.ask(silent.guid)
        network.scheduler.run_until_idle()
        assert asker.requests.retries == 0
        assert len(asker.timeouts) == 1


class TestJitterStream:
    def test_windows_match_the_eager_stream(self, network, lossy_pair):
        """The jitter stream is created by the first retransmission, from
        the seed the constructor used to use: three forced retransmissions
        keep the windows of an eagerly seeded ``random.Random``."""
        echo, asker = lossy_pair
        asker.requests = RequestManager(asker)
        asker.timeout, asker.retries = 3.0, 3
        assert asker.requests._rng is None
        asker.ask(echo.guid, {"q": 0})
        network.scheduler.run_until_idle()
        assert asker.requests._rng is None  # answered: no stream needed

        network.fail_host("host-a")
        sent_at = []
        send = network.send

        def recording(message):
            sent_at.append(network.scheduler.now)
            send(message)

        network.send = recording
        start = network.scheduler.now
        asker.ask(echo.guid, {"q": 1})
        network.scheduler.run_until_idle()

        eager = random.Random(asker.guid.value & 0xFFFFFFFFFFFF)
        expected = [start, start + 3.0]
        for attempt in (2, 3, 4):
            window = 3.0 * 2.0 ** (attempt - 1) * (1.0 + 0.25 * eager.random())
            expected.append(expected[-1] + window)
        assert asker.requests.retries == 3
        assert sent_at + asker.timeouts == pytest.approx(expected, abs=1e-12)


class TestReceiverDedup:
    def test_duplicate_request_handled_once(self, network, guids, lossy_pair):
        echo, asker = lossy_pair
        original = asker.send(echo.guid, "ask", {"q": 1})
        dup = Message(sender=asker.guid, recipient=echo.guid, kind="ask",
                      payload={"q": 1}, msg_id=original.msg_id)
        network.send(dup)
        network.scheduler.run_until_idle()
        assert echo.handled == 1
        suppressed = network.obs.metrics.counter("net.dedup.suppressed")
        assert suppressed.value() >= 1

    def test_duplicate_replays_cached_reply(self, network, guids):
        # The first reply is lost; a retransmitted request must get the
        # cached reply back without re-running the handler.
        echo = CountingEcho(guids.mint(), "host-a", network)
        asker = RetryingAsker(guids.mint(), "host-b", network,
                              retries=4, timeout=2.0)
        injector = FaultInjector(network, seed=11)
        injector.loss_episode(0.6, duration=8.0)
        for index in range(6):
            asker.ask(echo.guid, {"index": index})
        network.scheduler.run_until_idle()
        assert sorted(r.payload["echo"]["index"] for r in asker.replies) == \
            list(range(6))
        assert echo.handled == 6  # never re-executed for a duplicate

    def test_dedup_cache_is_bounded(self, network, guids):
        echo = CountingEcho(guids.mint(), "host-a", network)
        sender = FunctionProcess(guids.mint(), "host-b", network,
                                 lambda message: None)
        for _ in range(echo.DEDUP_CACHE + 50):
            sender.send(echo.guid, "ask", {})
        network.scheduler.run_until_idle()
        assert len(echo._seen_messages) == echo.DEDUP_CACHE
