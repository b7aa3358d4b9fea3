"""Verb fixture: a tiny protocol with deliberate holes.

Handles ``subscribe``, whose repro.net.wire row is flagged external API, so
its handler below must NOT count as dead. Never imported; AST only.
"""


class Alpha:
    def poke(self, peer, message):
        self.send(peer, "vx-good", {})         # handled below: fine
        self.send(peer, "vx-orphan", {})       # line 11: unhandled-send
        self.reply(message, "subscribe-ack", {})  # a reply: no handler

    def on_message(self, message):
        if message.kind == "vx-good":
            return "ok"
        if message.kind == "subscribe":        # external api: fine
            return "declared"
        if message.kind == "vx-dead":          # line 19: dead-handler
            return "dead"


class Dispatcher:
    def __init__(self):
        self.handlers = {
            "vx-good": self._noop,
            "vx-dict-dead": self._noop,        # line 27: dead-handler
        }

    def _noop(self, message):
        return message


class Dynamic:
    def on_message(self, message):
        handler = getattr(self, f"_handle_{message.kind.replace('-', '_')}",
                          None)
        if handler is not None:
            handler(message)

    def _handle_vx_good(self, message):
        return message

    def _handle_vx_dyn_dead(self, message):    # line 44: dead-handler
        return message

    def _not_a_handler(self, message):
        return message
