"""The link-local flood, kept as the listener table's equivalence reference.

Until the transport kept a ``(host, kind) -> listeners`` table, a message
sent to ``BROADCAST`` was copied to *every other process on the sender's
machine* — one ``Message``, one heap entry, one delivery, one dedup-cache
slot and one ``on_message`` each — and every recipient that did not care
dropped it in a debug log. :class:`FloodNetwork` is that transport: only
``_broadcast`` is swapped, everything downstream of it (``_dispatch``,
``_deliver``, the recipients' own handlers) is the production code.

A copy addressed to a process the production table would *not* have reached
(it declared nothing, or it is a daemon that was switched off) is a **dead
letter**. The reference remembers which deliveries those were, so
``test_link_local.py`` can require that the production transport leaves
exactly the reference's event log minus its dead letters.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Set, Tuple

from repro.core.ids import GUID
from repro.net.eventlog import Entry
from repro.net.message import Message
from repro.net.transport import Host, Network


class FloodNetwork(Network):
    """:class:`Network` whose broadcast reaches every co-hosted process.

    Needs an ``event_log``: dead letters are identified by their position
    in it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: (sender, msg_id, recipient) of the copies addressed to
        #: non-listeners (every copy keeps its original's msg_id)
        self._dead: Set[Tuple[GUID, int, GUID]] = set()
        #: event-log positions of the dead letters that were delivered
        self.dead_letters: List[int] = []

    def _broadcast(self, message: Message, source_host: Optional[Host]) -> None:
        if source_host is None:
            self.stats.record_undeliverable()
            return
        heard = self._listeners.get((source_host.host_id, message.kind), {})
        for process in self.processes_on(source_host.host_id):
            if process.guid == message.sender:
                continue
            copy = replace(message, recipient=process.guid,
                           payload=dict(message.payload))
            if process.guid not in heard:
                self._dead.add((copy.sender, copy.msg_id, process.guid))
            self._dispatch(copy, source_host, process)

    def _deliver(self, message: Message, recipient_guid: GUID) -> None:
        key = (message.sender, message.msg_id, recipient_guid)
        if key in self._dead:
            self._dead.discard(key)
            recipient = self.process(recipient_guid)
            if recipient is not None and self.host(recipient.host_id).up:
                # the entry super() is about to append
                self.dead_letters.append(len(self.event_log))
        super()._deliver(message, recipient_guid)

    def heard_entries(self) -> List[Entry]:
        """The event log without the dead letters, in execution order."""
        dead = set(self.dead_letters)
        return [entry for position, entry in enumerate(self.event_log.entries())
                if position not in dead]
