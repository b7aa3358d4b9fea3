"""Verb fixture: link-local announcements are handled by declaration.

A verb sent to ``BROADCAST`` reaches only the processes whose class names it
in ``listens_for`` — a ``_handle_`` method somewhere does not receive it.
Never imported; AST only.
"""

BROADCAST = object()


class Announcer:
    def start(self):
        self.send(BROADCAST, "vy-heard", {})       # Daemon declares it: fine
        self.send(BROADCAST, "vy-unheard", {})     # line 14: unhandled-send

    def poke(self, peer):
        self.send(peer, "vy-direct", {})           # a plain handler will do


class Daemon:
    listens_for = ("vy-heard",)

    def _handle_vy_heard(self, message):
        return "offer"

    def _handle_vy_direct(self, message):
        return "direct"


class Bystander:
    def _handle_vy_unheard(self, message):         # never delivered here
        return "would have"
