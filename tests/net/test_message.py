"""Message semantics: ids, correlation, rendering."""

import pytest

from repro.core.ids import GuidFactory
from repro.net.message import BROADCAST, Message
from repro.net.transport import FixedLatency, FunctionProcess, Network

GUIDS = GuidFactory(seed=41)


@pytest.fixture
def pair():
    network = Network(latency_model=FixedLatency(1.0))
    network.add_host("h")
    return tuple(FunctionProcess(GUIDS.mint(), "h", network, lambda m: None)
                 for _ in range(2))


class TestMessage:
    def test_ids_monotonic(self, pair):
        """A process numbers what it sends, replies included, from 1."""
        sender, other = pair
        first = sender.send(other.guid, "x")
        second = sender.send(other.guid, "x")
        reply = sender.reply(first, "answer")
        assert [first.msg_id, second.msg_id, reply.msg_id] == [1, 2, 3]
        assert other.send(sender.guid, "x").msg_id == 1
        with pytest.raises(TypeError):
            Message(GUIDS.mint(), GUIDS.mint(), "x")  # no default id

    def test_response_correlates(self, pair):
        asker, answerer = pair
        original = asker.send(answerer.guid, "ask", {"q": 1})
        answerer.send(asker.guid, "x")
        reply = answerer.reply(original, "answer", {"a": 2})
        assert reply.reply_to == original.msg_id
        assert reply.msg_id == 2
        assert reply.recipient == asker.guid
        assert reply.sender == answerer.guid
        assert reply.payload == {"a": 2}

    def test_response_default_payload(self, pair):
        asker, answerer = pair
        original = asker.send(answerer.guid, "ask")
        assert answerer.reply(original, "ok").payload == {}

    def test_str_shows_kind_and_correlation(self, pair):
        asker, answerer = pair
        original = asker.send(answerer.guid, "ask")
        reply = answerer.reply(original, "answer")
        assert "[ask]" in str(original)
        assert f"re:{original.msg_id}" in str(reply)

    def test_broadcast_sentinel_is_max_guid(self):
        assert BROADCAST.value == (1 << 128) - 1
