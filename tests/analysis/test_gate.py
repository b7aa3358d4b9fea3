"""The standing CI gate: the real tree has zero findings and a fresh
PROTOCOL.md, and the CLI reports violations with a non-zero exit."""

import json
import pathlib

import pytest

import repro
from repro.analysis.__main__ import main
from repro.analysis.runner import run_analysis
from repro.analysis.verbs import build_model, protocol_drift, render_protocol

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
REPO_ROOT = SRC.parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_src_tree_is_clean():
    report = run_analysis([str(SRC)])
    assert report.ok, "\n".join(f.format() for f in report.active)
    assert report.suppressed == []  # nothing in src/ needs a pragma today


def test_committed_protocol_is_fresh():
    protocol = REPO_ROOT / "PROTOCOL.md"
    assert protocol.exists(), "PROTOCOL.md missing: run --write-protocol"
    report = run_analysis([str(SRC)], select=["verbs"])
    model = build_model(report.sources)
    assert not protocol_drift(model, protocol.read_text(encoding="utf-8")), \
        "PROTOCOL.md is stale: regenerate with --write-protocol"


def test_cli_exit_codes_and_json(capsys, tmp_path):
    assert main([str(SRC)]) == 0
    capsys.readouterr()

    rc = main([str(FIXTURES / "det_violations.py"), "--format", "json",
               "--select", "determinism"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 1
    assert payload["counts"]["determinism.wall-clock"] == 2
    assert all(f["severity"] == "error" for f in payload["findings"])


def test_cli_rejects_a_family_that_left(capsys):
    """``races`` went with the lanes it policed: selecting it is a usage
    error (argparse choice), not an empty clean run."""
    with pytest.raises(SystemExit) as exit_info:
        main([str(SRC), "--select", "races"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'races'" in capsys.readouterr().err


def test_cli_check_protocol_detects_drift(capsys, tmp_path):
    stale = tmp_path / "PROTOCOL.md"
    stale.write_text("# stale\n", encoding="utf-8")
    rc = main([str(SRC), "--select", "verbs", "--no-orphans",
               "--check-protocol", str(stale)])
    assert rc == 1
    assert "verbs.protocol-drift" in capsys.readouterr().out

    fresh = tmp_path / "FRESH.md"
    report = run_analysis([str(SRC)], select=["verbs"])
    fresh.write_text(render_protocol(build_model(report.sources)),
                     encoding="utf-8")
    rc = main([str(SRC), "--select", "verbs", "--no-orphans",
               "--check-protocol", str(fresh)])
    assert rc == 0
    capsys.readouterr()
