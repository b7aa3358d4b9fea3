"""CAPA: the full Section-5 scenario and its pieces."""

import pytest

from repro.apps.capa import build_capa_scenario
from repro.entities.devices import PrinterState
from tests.recording import record_answers


@pytest.fixture(scope="module")
def scenario():
    """One scripted run of the whole paper narrative (module-scoped: the
    scenario is deterministic and read-only assertions share it)."""
    sc = build_capa_scenario(seed=1)
    sci = sc.sci
    sc.john_answers = record_answers(sc.john_capa)
    sc.bob_request = sc.bob_capa.request_print(
        "quarterly-report.pdf", pages=20,
        when="enters(bob, L10.01)",
        which="reachable; available; no-queue; closest-to(me)")
    sci.teleport("bob", "lobby")
    sci.run(10)
    sc.forwarded_marker = sc.lobby_cs.queries_forwarded
    sc.parked_marker = len(sc.level10_cs.parked_queries())
    sci.walk("bob", "L10.01")
    sci.run(60)
    sc.printers["P2"].set_out_of_paper()
    sci.run(2)
    sc.john_request = sc.john_capa.request_print(
        "lecture-notes.pdf", pages=3,
        which="reachable; available; no-queue; closest-to(me)")
    sci.run(20)
    return sc


class TestOfflineOperation:
    def test_query_queued_while_out_of_range(self, scenario):
        assert scenario.bob_request.submitted is False

    def test_pda_registered_on_lobby_entry(self, scenario):
        assert scenario.bob_capa.registered


class TestForwarding:
    def test_lobby_forwarded_to_level10(self, scenario):
        assert scenario.forwarded_marker == 1

    def test_level10_parked_until_trigger(self, scenario):
        assert scenario.parked_marker == 1
        assert scenario.level10_cs.parked_queries() == []  # fired since


class TestBobsPrintout:
    def test_p1_selected_for_bob(self, scenario):
        assert scenario.bob_request.selected_printer == "P1"

    def test_job_accepted(self, scenario):
        assert scenario.bob_request.outcome["accepted"] is True

    def test_p1_ran_bobs_job(self, scenario):
        """P1 was busy with Bob's job at John's query time (asserted via
        John's candidate view below); by scenario end it has run it."""
        scenario.sci.run(100)
        owners = [job["owner"]
                  for job in scenario.printers["P1"].jobs_completed]
        assert "bob" in owners


class TestJohnsPrintout:
    def test_p4_selected_for_john(self, scenario):
        """P1 busy, P2 out of paper, P3 locked -> P4 (Figure 7)."""
        assert scenario.john_request.selected_printer == "P4"

    def test_job_accepted(self, scenario):
        assert scenario.john_request.outcome["accepted"] is True

    def test_p3_was_reported_unreachable(self, scenario):
        result = scenario.john_answers[scenario.john_request.query.query_id]
        p3 = next(c for c in result["candidates"] if c["name"] == "P3")
        assert p3["reachable"] is False

    def test_p2_was_reported_unavailable(self, scenario):
        result = scenario.john_answers[scenario.john_request.query.query_id]
        p2 = next(c for c in result["candidates"] if c["name"] == "P2")
        assert p2["available"] is False


class TestPrintCompletion:
    def test_both_jobs_eventually_complete(self, scenario):
        scenario.sci.run(100)
        p1_docs = [j["document"] for j in scenario.printers["P1"].jobs_completed]
        p4_docs = [j["document"] for j in scenario.printers["P4"].jobs_completed]
        assert "quarterly-report.pdf" in p1_docs
        assert "lecture-notes.pdf" in p4_docs


class TestFailureModes:
    def test_no_printer_available_reports_reason(self):
        sc = build_capa_scenario(seed=2)
        for printer in sc.printers.values():
            printer.set_out_of_paper()
        sc.sci.run(5)
        request = sc.john_capa.request_print("doc", which="available")
        sc.sci.run(20)
        assert request.outcome["accepted"] is False
