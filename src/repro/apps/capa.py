"""CAPA — the Context Aware Printing Application (Section 5, Figure 7).

The application side of the paper's walk-through: CAPA queues print requests
while its user is out of range, submits them on (re)connection, receives the
infrastructure's printer selection and then talks to the chosen printer's
Context Entity directly through its Advertisement interface.

:func:`build_capa_scenario` constructs the full two-range deployment of
Section 5 — lift lobby (W-LAN bounded) and Level 10 — with printers P1..P4
in the states the paper prescribes, ready for examples, tests and the
Figure-7 benchmark to drive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.api import SCI, SCIConfig
from repro.core.ids import GUID
from repro.entities.entity import ContextAwareApplication
from repro.net.message import Message
from repro.query.model import Query, QueryBuilder

logger = logging.getLogger(__name__)


@dataclass
class PrintRequest:
    """One document the user wants printed."""

    document: str
    pages: int
    query: Query
    submitted: bool = False
    selected_printer: Optional[str] = None
    outcome: Optional[Dict[str, Any]] = None


class CAPAApp(ContextAwareApplication):
    """The CAPA Context Aware Application."""

    def __init__(self, profile, host_id, network, user: str = ""):
        super().__init__(profile, host_id, network)
        self.user = user or profile.attributes.get("owner", profile.name)
        self._requests: Dict[str, PrintRequest] = {}

    # -- user actions -------------------------------------------------------------

    def request_print(self, document: str, pages: int = 1,
                      where: str = "anywhere",
                      when: str = "now",
                      which: str = "reachable; available; closest-to(me)") -> PrintRequest:
        """Queue a print request (works offline, per the train scenario)."""
        query = (QueryBuilder(self.user)
                 .advertisement("printer")
                 .where(where)
                 .when(when)
                 .which(which)
                 .build())
        request = PrintRequest(document=document, pages=pages, query=query)
        self.queue_query(query)   # submits now if registered, else at next range
        self._requests[query.query_id] = request   # named by queue_query
        request.submitted = self.registered
        return request

    # -- infrastructure responses ------------------------------------------------------

    def on_query_result(self, query_id: str, fields: Dict[str, Any]) -> None:
        """Send the document to the printer a ``query-result`` chose."""
        request = self._requests.get(query_id)
        if request is None:
            return
        if not fields["ok"]:
            request.outcome = {"accepted": False,
                               "reason": fields.get("error", "no printer")}
            logger.warning("CAPA(%s): %s failed: %s", self.user,
                           query_id, request.outcome["reason"])
            return
        selected = fields.get("selected", {})
        request.selected_printer = selected.get("name")
        printer_hex = selected.get("entity")
        if printer_hex is None:
            request.outcome = {"accepted": False, "reason": "no candidate"}
            return
        logger.info("CAPA(%s): infrastructure selected %s for %r",
                    self.user, request.selected_printer, request.document)
        # Advertisement interface: send the document to the printer CE.
        self._send_job(GUID.from_hex(printer_hex), request)

    def _send_job(self, printer: GUID, request: PrintRequest) -> None:
        def on_reply(reply: Message) -> None:
            result = reply.fields.get("result", {})
            request.outcome = result
            logger.info("CAPA(%s): %r -> %s: %s", self.user, request.document,
                        request.selected_printer, result)

        self.requests.request(
            printer, "service-invoke",
            {"operation": "print",
             "args": {"document": request.document,
                      "pages": request.pages,
                      "owner": self.user}},
            on_reply=on_reply,
        )


@dataclass
class CAPAScenario:
    """Everything :func:`build_capa_scenario` assembled."""

    sci: SCI
    lobby_cs: object
    level10_cs: object
    bob_capa: CAPAApp
    john_capa: CAPAApp
    printers: Dict[str, object]
    locked_door_id: str = "door:corridor--L10.05"


def build_capa_scenario(seed: int = 0,
                        config: Optional[SCIConfig] = None) -> CAPAScenario:
    """The Section-5 deployment, poised at the start of the story.

    * Two ranges: ``lobby`` (bounded by the lift-lobby base station) and
      ``level10`` (the floor's rooms), joined through the SCINET.
    * Printers P1, P2 in the print room L10.03; P4 in the open area; P3 in
      the store room L10.05 behind a door locked to facilities staff only.
    * Bob: outside with a PDA (host ``bob-pda``), CAPA loaded and offline.
    * John: in his office L10.02 with a desktop (host ``john-pc``) in the
      Level-10 jurisdiction; his CAPA registers immediately.

    P2's paper tray and P1's job queue are left for the caller to script —
    the paper's states arise during the scenario, not before it.
    """
    sci = SCI(config=config or SCIConfig(seed=seed))

    lobby_cs = sci.create_range("lobby", places=["lobby"],
                                stations=["ap-lobby"])
    level10_cs = sci.create_range(
        "level10",
        places=["L10"],
        hosts=["john-pc"],
    )
    # Level 10 instruments every door touching its rooms, including the
    # lobby/corridor boundary door, so arrivals from the lobby are seen.
    sci.add_door_sensors("level10",
                         rooms=level10_cs.definition.rooms(sci.building) + ["lobby"])
    printers = sci.add_printers("level10", {
        "P1": "L10.03",
        "P2": "L10.03",
        "P3": "L10.05",
        "P4": "open-area",
    })
    # P3 sits behind a locked door (the paper: John has no access).
    sci.building.topology.door("door:corridor--L10.05").lock({"facilities"})

    sci.add_person("bob", room=None, device_host="bob-pda")
    sci.add_person("john", room="corridor", device_host=None)

    bob_capa = sci.create_application("capa:bob", host="bob-pda",
                                      app_class=CAPAApp, owner="bob",
                                      user="bob")
    john_capa = sci.create_application("capa:john", host="john-pc",
                                       app_class=CAPAApp, owner="john",
                                       user="john")
    sci.start_boundary_monitor()
    # Let Level 10's fixed infrastructure register; Bob stays offline.
    sci.run(5)
    # John walks into his office so the range knows where he is.
    sci.walk("john", "L10.02")
    sci.run(15)
    return CAPAScenario(
        sci=sci,
        lobby_cs=lobby_cs,
        level10_cs=level10_cs,
        bob_capa=bob_capa,
        john_capa=john_capa,
        printers=printers,
    )
