"""Verb fixture: replies that nobody waits for.

Declares ``vz-external`` as an external API endpoint: applications request
it from outside the tree. Never imported; AST only.
"""


class Client:
    def go(self, peer):
        self.send(peer, "vz-told", {})                # fire-and-forget
        self.send(peer, "vz-branch-told", {})         # fire-and-forget
        self.requests.request(peer, "vz-asked", {})   # awaited
        self.send(peer, "vz-both", {})
        self.requests.request(peer, "vz-both", {})    # awaited somewhere


class Server:
    def on_message(self, message):
        if message.kind == "vz-told":
            self._handle_vz_told(message)
        elif message.kind == "vz-asked":
            self._handle_vz_asked(message)
        elif message.kind == "vz-both":
            self.reply(message, "vz-both-ack", {})
        elif message.kind == "vz-branch-told":
            self.reply(message, "vz-branch-ack", {})  # line 26: orphan-reply
        elif message.kind == "vz-external":
            self.reply(message, "vz-external-ack", {})

    def _handle_vz_told(self, message):
        self.reply(message, "vz-told-ack", {})        # line 31: orphan-reply

    def _handle_vz_asked(self, message):
        self.reply(message, "vz-asked-ack", {})
