"""Verb fixture: a tiny protocol with deliberate holes.

Handles ``subscribe``, whose repro.net.wire row is flagged external API, so
its handler below must NOT count as dead. A handler is a ``_handle_<verb>``
method and nothing else. Never imported; AST only.
"""


class Alpha:
    def poke(self, peer, message):
        self.send(peer, "vx-good", {})         # handled below: fine
        self.send(peer, "vx-orphan", {})       # line 12: unhandled-send
        self.send(peer, "vx-branch", {})       # line 13: a kind == branch
        self.send(peer, "vx-wide", {})
        self.reply(message, "subscribe-ack", {})  # a reply: no handler

    def _handle_vx_good(self, message):
        return message

    def _handle_subscribe(self, message):      # external api: fine
        return message

    def _handle_vx_dead(self, message):        # line 23: dead-handler
        return message

    def _handle_vx_wide(self, message, extra=None):  # line 26: signature
        return message, extra


class Beta:
    def on_message(self, message):
        if message.kind == "vx-branch":        # handles nothing
            return "branch"

    def __init__(self):
        self.handlers = {"vx-dict": self._noop}  # handles nothing either

    def _noop(self, message):
        return message

    def _handle_vx_good(self, reply, peer):   # line 41: signature
        return reply, peer
