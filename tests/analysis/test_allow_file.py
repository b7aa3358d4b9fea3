"""The whole-file pragma: module-top suppression, still visible, never buried.

Complements the per-line pragma tests in test_determinism.py — the
allow-file variant suppresses a check across the file but only when it is
declared before the first real statement, so suppression scope is always
readable at the top of a module.
"""

import textwrap

from repro.analysis.runner import run_analysis
from repro.analysis.source import SourceFile

VIOLATIONS = textwrap.dedent('''\
    # sci: allow-file(determinism.wall-clock)
    """Module docstring."""

    import time


    class Host:
        def on_message(self, message):
            self.seen = time.time()

        def _handle_kick(self, message):
            self.kicked = time.monotonic()
''')


def _run(tmp_path, text, select=("determinism",)):
    path = tmp_path / "mod.py"
    path.write_text(text, encoding="utf-8")
    return run_analysis([str(path)], select=list(select))


def test_allow_file_suppresses_whole_file(tmp_path):
    report = _run(tmp_path, VIOLATIONS)
    assert report.active == []
    # suppressed-but-visible: both findings survive into the summary
    assert [(f.check, f.line) for f in report.suppressed] == [
        ("determinism.wall-clock", 9),
        ("determinism.wall-clock", 12),
    ]


def test_allow_file_after_docstring_counts(tmp_path):
    text = VIOLATIONS.splitlines(keepends=True)
    moved = "".join([text[1]] + [text[0]] + text[2:])   # pragma on line 2
    report = _run(tmp_path, moved)
    assert report.active == []
    assert len(report.suppressed) == 2


def test_buried_allow_file_is_ignored(tmp_path):
    lines = VIOLATIONS.splitlines(keepends=True)
    buried = "".join(lines[1:] + ["\n"] + [lines[0]])   # pragma at EOF
    report = _run(tmp_path, buried)
    assert len(report.active) == 2
    assert report.suppressed == []


def test_family_wide_allow_file(tmp_path):
    text = VIOLATIONS.replace("allow-file(determinism.wall-clock)",
                              "allow-file(determinism)")
    report = _run(tmp_path, text)
    assert report.active == []
    assert len(report.suppressed) == 2


def test_allow_file_does_not_leak_to_other_checks(tmp_path):
    text = VIOLATIONS.replace(
        "self.seen = time.time()",
        "self.seen = time.time()\n        import random; random.random()", 1)
    report = _run(tmp_path, text)
    checks = {f.check for f in report.active}
    assert "determinism.unseeded-random" in checks
    assert "determinism.wall-clock" not in checks


def test_source_file_exposes_file_allows():
    source = SourceFile.from_text(VIOLATIONS, "src/repro/x.py")
    assert source.file_allows == frozenset({"determinism.wall-clock"})
    assert source.allowed_at(9, "determinism.wall-clock")
    assert not source.allowed_at(9, "determinism.unseeded-random")
