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
    def _handle_resync(self, message):
        self.reply(message, "resync-ack", {})         # line 19: orphan-reply

    def _handle_query(self, message):
        self.reply(message, "query-ack", {})

    def _handle_publish(self, message):
        self.reply(message, "publish-ack", {})

    def _handle_service_invoke(self, message):
        self.reply(message, "service-result", {})     # line 28: orphan-reply

    def _handle_unsubscribe_owner(self, message):
        self.reply(message, "unsubscribe-owner-ack", {})  # external api
