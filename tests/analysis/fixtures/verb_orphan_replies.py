"""Verb fixture: replies that nobody waits for.

A reply answers the verb whose repro.net.wire row names it; the fixture's
verbs are real rows. Never imported; AST only.
"""


class Client:
    def go(self, peer):
        self.send(peer, "resync", {})                 # fire-and-forget
        self.send(peer, "service-invoke", {})         # fire-and-forget
        self.requests.request(peer, "query", {})      # awaited
        self.send(peer, "publish", {})
        self.requests.request(peer, "publish", {})    # awaited somewhere


class Server:
    def on_message(self, message):
        if message.kind == "resync":
            self._handle_resync(message)
        elif message.kind == "query":
            self._handle_query(message)
        elif message.kind == "publish":
            self.reply(message, "publish-ack", {})
        elif message.kind == "service-invoke":
            self.reply(message, "service-result", {})  # line 26: orphan
        elif message.kind == "unsubscribe-owner":
            self.reply(message, "unsubscribe-owner-ack", {})  # external api

    def _handle_resync(self, message):
        self.reply(message, "resync-ack", {})         # line 31: orphan-reply

    def _handle_query(self, message):
        self.reply(message, "query-ack", {})
