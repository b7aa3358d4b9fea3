"""Verb fixture: a key read on a message's raw payload or that payload handed
to an ``on_*`` hook is a finding; the fields checked against its wire row
are not. Never imported; AST only."""


class Client:
    def _on_ack(self, reply: Message) -> None:
        self.ok = reply.payload["ok"]                 # line 8: raw-payload

    def _on_result(self, reply: "Message") -> None:
        self.ok = reply.fields["ok"]                  # checked: passes
        self.keep(reply.payload)                      # not read by key

    def ask(self, peer, kind):
        self.requests.request(
            peer, kind, {},
            on_reply=lambda reply: reply.payload.get("ok"))  # line 17

    def untyped(self, reply):
        return reply.payload["ok"]                    # not a Message param

    def _answered(self, message: Message) -> None:
        self.on_answer(message.payload)               # line 23: raw-payload
        self.on_answer(fields=message.payload)        # line 24: raw-payload
        self.on_answer(message.fields)                # the parsed fields
        self.log(message.payload)                     # not a hook
