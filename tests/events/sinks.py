"""A hand-built subscriber that acknowledges every ``event`` it receives.

A mediator holds each delivery until the subscriber's cumulative
``event-ack`` covers it, and retransmits what stays unacked. A test sink
that counts its messages therefore answers each ``event`` at once, as a
subscriber's :class:`~repro.events.stream.AckBatcher` would, so the count
is one message per (publish, subscriber) and not its retransmissions.
"""

from repro.net.transport import FunctionProcess


def acking_sink(guids, network, host="host-b", name=""):
    """``(process, inbox)``: a process on ``host`` that records every
    message and acks each ``event``'s ``[sub_id, seq]`` pairs."""
    inbox = []

    def handle(message):
        inbox.append(message)
        if message.kind == "event":
            process.send(message.sender, "event-ack",
                         {"acks": message.payload["subs"]})

    process = FunctionProcess(guids.mint(), host, network, handle, name=name)
    return process, inbox
