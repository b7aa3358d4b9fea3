"""The verb family closes the protocol: no black-hole sends, no dead code."""

import pathlib

from repro.analysis.findings import sort_findings
from repro.analysis.source import SourceFile, load_sources
from repro.analysis.verbs import (VerbChecker, build_model, protocol_drift,
                                  render_protocol)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "verb_violations.py"
ANNOUNCES = pathlib.Path(__file__).parent / "fixtures" / "verb_announces.py"
ORPHANS = pathlib.Path(__file__).parent / "fixtures" / "verb_orphan_replies.py"
RAW = pathlib.Path(__file__).parent / "fixtures" / "verb_raw_payload.py"


def _sources():
    sources, errors = load_sources([str(FIXTURE)])
    assert errors == []
    return sources


def test_fixture_findings_exact():
    findings = sort_findings(VerbChecker().check(_sources()))
    assert [(f.check, f.line) for f in findings] == [
        ("verbs.unhandled-send", 12),     # vx-orphan
        ("verbs.unhandled-send", 13),     # vx-branch: a kind == branch only
        ("verbs.dead-handler", 23),       # vx-dead
        ("verbs.handler-signature", 26),  # a parameter after the message
        ("verbs.handler-signature", 41),  # a reply callback's shape
    ]
    assert "_handle_vx_good must take exactly (self, message)" in \
        findings[-1].message


def test_model_classifies_roles():
    model = build_model(_sources())
    assert model.role("subscribe-ack") == "reply"  # reply(): no handler
    assert model.role("vx-good") == "request"
    assert model.role("subscribe") == "external api"  # from its wire row
    # every _handle_<verb> method, in any class, and nothing else
    assert set(model.handlers) == {"vx-good", "subscribe", "vx-dead",
                                   "vx-wide"}
    assert len(model.handlers["vx-good"]) == 2


def test_reply_and_declared_verbs_are_not_findings():
    findings = VerbChecker().check(_sources())
    verbs_flagged = {f.message.split('"')[1] for f in findings
                     if f.check != "verbs.handler-signature"}
    assert "subscribe-ack" not in verbs_flagged
    assert "subscribe" not in verbs_flagged
    assert "vx-good" not in verbs_flagged


def test_protocol_render_and_drift():
    model = build_model(_sources())
    rendered = render_protocol(model)
    # docstring words that are not wire verbs never enter the table
    assert "| `vx-good` |" in rendered
    assert "handler" not in [line.split("`")[1] for line in
                             rendered.splitlines() if line.startswith("| `")]
    assert not protocol_drift(model, rendered)
    assert protocol_drift(model, rendered + "edited\n")
    assert protocol_drift(model, "")


def test_an_announce_is_handled_by_whoever_declares_it():
    sources, errors = load_sources([str(ANNOUNCES)])
    assert errors == []
    model = build_model(sources)
    assert set(model.announces) == {"vy-heard", "vy-unheard"}
    assert set(model.listeners) == {"vy-heard"}
    # a _handle_ method does not receive a link-local announcement
    assert "vy-unheard" in model.handlers
    findings = VerbChecker().check(sources, model)
    assert [(f.check, f.line) for f in findings] == [
        ("verbs.unhandled-send", 14)]
    rows = {line.split("`")[1]: line for line in
            render_protocol(model).splitlines() if line.startswith("| `")}
    module = "tests.analysis.fixtures.verb_announces"
    assert rows["vy-heard"].endswith(f"| {module} | {module} |")
    assert rows["vy-unheard"].endswith(f"| {module} | — |")


def test_a_reply_to_a_verb_only_ever_sent_is_an_orphan():
    sources, errors = load_sources([str(ORPHANS)])
    assert errors == []
    model = build_model(sources)
    assert set(model.requested) == {"query", "publish"}
    findings = sort_findings(VerbChecker().check(sources, model))
    assert [(f.check, f.line) for f in findings] == [
        ("verbs.orphan-reply", 19),   # resync
        ("verbs.orphan-reply", 28),   # service-invoke
    ]
    assert 'reply "resync-ack" answers verb "resync"' in findings[0].message


def test_requested_and_external_verbs_may_be_answered():
    sources, _ = load_sources([str(ORPHANS)])
    model = build_model(sources)
    # every reply was found; only the two send-only verbs' are findings
    assert set(model.replies) == {"publish-ack", "service-result",
                                  "unsubscribe-owner-ack", "resync-ack",
                                  "query-ack"}
    flagged = {f.message.split('"')[3]
               for f in VerbChecker().check(sources, model)}
    assert flagged == {"resync", "service-invoke"}


def test_a_reply_no_wire_row_names_is_an_orphan(tmp_path):
    source = tmp_path / "undeclared.py"
    source.write_text(
        "class Server:\n"
        "    def _handle_query(self, message):\n"
        "        self.reply(message, \"query-receipt\", {})\n")
    sources, errors = load_sources([str(source)])
    assert errors == []
    (finding,) = [finding for finding in VerbChecker().check(sources)
                  if finding.check == "verbs.orphan-reply"]
    assert finding.line == 3
    assert 'reply "query-receipt" answers no verb' in finding.message


def test_a_key_read_on_a_message_payload_is_a_raw_payload_finding():
    sources, errors = load_sources([str(RAW)])
    assert errors == []
    findings = sort_findings(VerbChecker().check(sources))
    assert [(f.check, f.line) for f in findings] == [
        ("verbs.raw-payload", 8),    # a parameter annotated Message
        ("verbs.raw-payload", 17),   # an on_reply lambda's parameter
        ("verbs.raw-payload", 23),   # handed to a hook positionally
        ("verbs.raw-payload", 24),   # and by keyword
    ]
    assert "reply.payload read by key" in findings[0].message
    assert "message.payload handed to the on_answer hook" in \
        findings[2].message


def test_the_wire_packages_may_read_payloads():
    text = ("def peek(message: Message):\n"
            "    return message.payload[\"kind\"]\n")
    owned = [SourceFile.from_text(text, f"src/repro/{package}/peek.py")
             for package in ("net", "ledger")]
    assert VerbChecker().check(owned) == []
    elsewhere = SourceFile.from_text(text, "src/repro/server/peek.py")
    assert [f.check for f in VerbChecker().check([elsewhere])] == [
        "verbs.raw-payload"]
