"""The one dispatch rule: ``Process.on_message`` hands a reply to the
callback of its request and any other arrival to ``_handle_<verb>``."""

import pytest

from repro.net.rpc import RequestManager
from repro.net.transport import FunctionProcess, Process
from repro.overlay.node import OverlayNode


class Server(Process):
    def __init__(self, guid, host_id, network):
        super().__init__(guid, host_id, network)
        self.seen = []

    def _handle_ping(self, message):
        self.seen.append(("ping", message.payload))

    def _handle_two_words(self, message):
        self.seen.append(("two-words", message.payload))


class LoudServer(Server):
    def _handle_ping(self, message):
        self.seen.append(("loud", None))
        super()._handle_ping(message)


@pytest.fixture
def client(network, guids):
    return FunctionProcess(guids.mint(), "host-a", network, lambda _m: None)


def unhandled(network):
    return network.obs.metrics.get("net.messages.unhandled").by_label()


def test_each_class_maps_its_verbs_to_methods_once():
    assert Server._handlers == {"ping": "_handle_ping",
                                "two-words": "_handle_two_words"}
    assert LoudServer._handlers == Server._handlers
    assert OverlayNode._handlers == {
        "o-route": "_handle_o_route", "o-bcast": "_handle_o_bcast",
        "o-delivery": "_handle_o_delivery", "o-hb": "_handle_o_hb"}
    assert Process._handlers == {}


def test_an_arrival_reaches_the_handler_of_its_verb(network, guids, client):
    server = LoudServer(guids.mint(), "host-b", network)
    client.send(server.guid, "ping", {"n": 1})
    client.send(server.guid, "two-words", {})
    network.run_until_idle()
    assert server.seen == [("loud", None), ("ping", {"n": 1}),
                           ("two-words", {})]
    assert unhandled(network) == {}


def test_a_kind_without_a_handler_is_counted(network, guids, client):
    server = Server(guids.mint(), "host-b", network)
    client.send(server.guid, "pong", {})
    client.send(server.guid, "pong", {})
    network.run_until_idle()
    assert server.seen == []
    assert unhandled(network) == {"pong": 2.0}


def test_a_handler_patched_on_the_instance_intercepts(network, guids,
                                                      client):
    server = Server(guids.mint(), "host-b", network)
    intercepted = []
    server._handle_ping = intercepted.append
    client.send(server.guid, "ping", {})
    network.run_until_idle()
    assert [message.kind for message in intercepted] == ["ping"]
    assert server.seen == []


def test_a_reply_goes_to_its_callback_and_a_late_one_is_unhandled(
        network, guids):
    asker = Server(guids.mint(), "host-a", network)
    asker.requests = RequestManager(asker)
    answerer = FunctionProcess(
        guids.mint(), "host-b", network,
        lambda message: answerer.reply(message, "answer", {}))
    replies, timeouts = [], []
    asker.requests.request(answerer.guid, "ask", {}, on_reply=replies.append)
    network.run_until_idle()
    assert [reply.kind for reply in replies] == ["answer"]
    assert unhandled(network) == {}
    # a round trip takes 2.0: this reply arrives after its request expired
    asker.requests.request(answerer.guid, "ask", {}, on_reply=replies.append,
                           on_timeout=lambda: timeouts.append(1),
                           timeout=0.5)
    network.run_until_idle()
    assert (len(replies), timeouts) == (1, [1])
    assert unhandled(network) == {"answer": 1.0}


@pytest.mark.parametrize("payload, answers", [
    (7, []), ("x", []), ([[1, 2]], []),
    ({"query": 5}, [("query-ack", False)]),
], ids=["int", "str", "list", "object"])
def test_a_refused_request_is_answered_only_when_it_is_an_object(
        network, guids, payload, answers):
    """``query`` has a reply verb: a payload that fails its row is answered
    with the flag False when it is an object, and dropped when it is not."""
    inbox = []
    asker = FunctionProcess(guids.mint(), "host-a", network, inbox.append)
    server = Server(guids.mint(), "host-b", network)
    asker.send(server.guid, "query", payload)
    network.run_until_idle()
    assert [(reply.kind, reply.payload["ok"]) for reply in inbox] == answers
    assert server.seen == []
    malformed = network.obs.metrics.get("net.messages.malformed").by_label()
    assert malformed == {"query": 1.0}
