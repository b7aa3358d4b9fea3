"""A malformed ``query`` request is answered, never raised.

Whatever shape the ``query`` payload has, the Context Server answers a
``query-ack`` with ``{"ok": False, "error": ...}``, the run goes on, and
nothing is routed or ledgered.
"""

import pytest

from repro.net.transport import FunctionProcess

QUERY = {"owner_id": "bob", "what": "type:printer"}

MALFORMED = {
    "non-object": {"query": 5},
    "missing": {},
    "non-string-what": {"query": {**QUERY, "what": 5}},
    "non-string-where": {"query": {**QUERY, "where": 5}},
    "unknown-mode": {"query": {**QUERY, "mode": "sometimes"}},
}


@pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_query_gets_an_error_ack(network, guids, deployed_range,
                                           payload):
    server, _ = deployed_range
    network.scheduler.run_for(10)
    replies = []
    asker = FunctionProcess(guids.mint(), "host-b", network, replies.append)
    entries = len(server.ledger)
    start = network.scheduler.now
    asker.send(server.guid, "query", payload)
    network.scheduler.run_for(5)  # used to raise out of the scheduler
    assert network.scheduler.now >= start + 5
    assert [(reply.kind, reply.payload["ok"]) for reply in replies] == \
        [("query-ack", False)]
    assert replies[0].payload["error"]
    assert len(server.ledger) == entries
