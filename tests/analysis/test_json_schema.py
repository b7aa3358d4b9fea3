"""Pin the ``--format json`` schema: downstream tooling parses this shape.

Top-level keys, per-finding keys, check-id form and the suppressed flag are
all asserted exactly — changing any of them is an intentional, visible
break of the machine interface.
"""

import json
import pathlib

from repro.analysis.__main__ import main
from repro.analysis.runner import FAMILIES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
#: one fixture with active findings, one whose findings are all suppressed
FIXTURE_ARGS = (str(FIXTURES / "det_violations.py"),
                str(FIXTURES / "pragma_ok.py"), "--select", "determinism")

FINDING_KEYS = {"check", "severity", "path", "line", "message", "suppressed"}


def _run_json(capsys, *argv):
    rc = main(list(argv))
    return rc, json.loads(capsys.readouterr().out)


def test_top_level_shape(capsys):
    rc, payload = _run_json(capsys, *FIXTURE_ARGS, "--format", "json")
    assert rc == 1
    assert set(payload) == {"files", "findings", "suppressed", "counts"}
    assert payload["files"] == 2


def test_finding_shape_and_flags(capsys):
    _, payload = _run_json(capsys, *FIXTURE_ARGS, "--format", "json")
    assert payload["findings"], "fixture must produce findings"
    assert payload["suppressed"], "fixture must produce a suppressed finding"
    for finding in payload["findings"]:
        assert set(finding) == FINDING_KEYS
        assert finding["suppressed"] is False
        assert finding["severity"] == "error"
        assert isinstance(finding["line"], int) and finding["line"] > 0
        family, _, check = finding["check"].partition(".")
        assert family in FAMILIES and check
    for finding in payload["suppressed"]:
        assert set(finding) == FINDING_KEYS
        assert finding["suppressed"] is True


def test_counts_match_findings(capsys):
    _, payload = _run_json(capsys, *FIXTURE_ARGS, "--format", "json")
    recount = {}
    for finding in payload["findings"]:
        recount[finding["check"]] = recount.get(finding["check"], 0) + 1
    assert payload["counts"] == recount
    # suppressed findings are reported but not counted as active
    assert sum(recount.values()) == len(payload["findings"])


def test_clean_run_shape(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n", encoding="utf-8")
    rc, payload = _run_json(capsys, str(clean), "--format", "json",
                            "--no-orphans")
    assert rc == 0
    assert payload["findings"] == []
    assert payload["suppressed"] == []
    assert payload["counts"] == {}
