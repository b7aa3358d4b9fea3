"""The Range Service Context Utility — per-machine discovery daemon.

Section 4.2 / Figure 5: "When a Context Server starts up, it deploys a Range
Service (RS) to all the machines within its jurisdiction. The RS performs
the task of listening for CAAs or CEs starting up in order to inform them
about the Range's Registrar."

A starting component broadcasts ``component-up`` on its machine; the RS on
that machine answers with ``range-offer`` naming the Registrar. When a device
host physically enters the range, the mobility layer has the RS offer to every
component already on it (:meth:`RangeService.offer_to_host`).

The daemon is also its machine's liveness. A component that registers through
one of its offers joins its **lease group** (a same-machine call, not a
message), and every third of a lease the RS sends the Registrar one
``heartbeat`` listing the members still attached on this machine; components
run no timer of their own. Renewal is one-way: nothing answers a heartbeat,
and the Registrar's eviction grace survives three lost in a row. A crashed
member stops being listed and its lease runs out. One that stops, is evicted
or moves to another range leaves the group itself.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.ids import GUID
from repro.net.message import Message
from repro.net.sim import Timer
from repro.net.transport import Network, Process
from repro.server.registrar import RENEWALS_PER_LEASE


class RangeService(Process):
    """One discovery daemon on one machine of a range's jurisdiction."""

    listens_for = ("component-up",)

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str, registrar: GUID):
        super().__init__(guid, host_id, network,
                         name=f"range-service:{range_name}@{host_id}")
        self.range_name = range_name
        self.registrar = registrar
        self.offers_made = 0
        self._enabled = True
        #: the lease group: entity hex -> component registered via this daemon
        self._members: Dict[str, Process] = {}
        self._renewal: Optional[Timer] = None

    @property
    def enabled(self) -> bool:
        """Off (its machine left the range), the daemon hears and offers
        nothing; it stays attached, so re-entry switches the same daemon back
        on and its lease group renews the members that have not left yet."""
        return self._enabled

    @enabled.setter
    def enabled(self, on: bool) -> None:
        self._enabled = on
        self.network.listen(self, on)

    def offer_to(self, component: GUID) -> None:
        """Tell one component where the Registrar is."""
        if not self.enabled:
            return
        self.offers_made += 1
        self.send(component, "range-offer", {
            "range": self.range_name,
            "registrar": self.registrar.hex,
        })

    def offer_to_host(self) -> int:
        """Offer to every component currently on this machine.

        Used when a mobile machine (a PDA) enters the range: the components
        on it never saw a Range Service, so the RS takes the first step.
        """
        offered = 0
        for process in self.network.processes_on(self.host_id):
            if process.guid == self.guid:
                continue
            if getattr(process, "component_kind", None) in ("ce", "caa"):
                self.offer_to(process.guid)
                offered += 1
        return offered

    # -- the lease group -------------------------------------------------------

    def join(self, component: Process, lease: float) -> None:
        """Renew ``component``'s lease from now on; the first member starts
        the timer."""
        self._members[component.guid.hex] = component
        if self._renewal is None:
            self._renewal = self.scheduler.schedule_periodic(
                lease / RENEWALS_PER_LEASE, self._renew_leases)

    def leave(self, component: Process) -> None:
        self._members.pop(component.guid.hex, None)

    def _renew_leases(self) -> None:
        """One heartbeat for the whole machine; an empty one stops the timer.

        Nothing answers it: a heartbeat the network eats is covered by the
        next one, a renewal period later.
        """
        attached = self.network.process
        self._members = {entity_hex: member
                         for entity_hex, member in self._members.items()
                         if attached(member.guid) is member}
        if not self._members:
            self._renewal.cancel()
            self._renewal = None
            return
        self.send(self.registrar, "heartbeat",
                  {"entities": list(self._members)})

    def _handle_component_up(self, message: Message) -> None:
        self.offer_to(message.sender)
