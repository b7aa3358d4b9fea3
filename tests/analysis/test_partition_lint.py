"""``determinism.partition-crossing``: substrate access stays in-boundary."""

import pathlib

from repro.analysis.determinism import (
    PARTITION_BOUNDARY_MODULES,
    DeterminismChecker,
)
from repro.analysis.findings import sort_findings
from repro.analysis.runner import run_analysis
from repro.analysis.source import SourceFile

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PART_FIXTURE = FIXTURES / "partition_violations.py"


def _check(text, module_path):
    source = SourceFile.from_text(text, module_path)
    return sort_findings(DeterminismChecker().check(source))


def test_fixture_findings_exact():
    findings = _check(PART_FIXTURE.read_text(encoding="utf-8"),
                      PART_FIXTURE.as_posix())
    assert [(f.check, f.line) for f in findings] == [
        ("determinism.partition-crossing", 12),  # schedule_delivery() call
        ("determinism.partition-crossing", 15),  # _lanes
        ("determinism.partition-crossing", 18),  # _rank_lane
        ("determinism.partition-crossing", 21),  # _origin_seq
        ("determinism.partition-crossing", 24),  # _lanes
        ("determinism.partition-crossing", 25),  # _round_horizon
    ]


def test_boundary_modules_are_exempt():
    text = PART_FIXTURE.read_text(encoding="utf-8")
    for module in ("repro.net.sim", "repro.net.transport"):
        path = "src/" + module.replace(".", "/") + ".py"
        assert module in PARTITION_BOUNDARY_MODULES
        assert _check(text, path) == [], (
            f"boundary module {module} must host the fast path un-flagged")


def test_wall_clock_allowed_only_in_run_loop_module():
    """The lane loop in sim.py self-profiles with perf_counter; the
    allowlist covers that module alone (RNG use is still flagged there),
    not its neighbours in ``repro.net``."""
    text = (
        "import time\n"
        "import random\n"
        "def slice_profile():\n"
        "    return time.perf_counter() + random.random()\n"
    )
    findings = _check(text, "src/repro/net/sim.py")
    assert [f.check for f in findings] == ["determinism.unseeded-random"]
    findings = _check(text, "src/repro/net/transport.py")
    assert sorted(f.check for f in findings) == [
        "determinism.unseeded-random", "determinism.wall-clock"]


def test_pragma_suppresses_partition_crossing():
    text = (
        "def drive(sched, fn):\n"
        "    sched.schedule_delivery('a', 'b', 1.0, fn)"
        "  # sci: allow(determinism.partition-crossing)\n"
    )
    fixture = FIXTURES / "_pragma_partition_tmp.py"
    fixture.write_text(text, encoding="utf-8")
    try:
        report = run_analysis([str(fixture)], select=["determinism"],
                              check_orphans=False)
        assert report.active == []
        assert [f.check for f in report.suppressed] == [
            "determinism.partition-crossing"]
    finally:
        fixture.unlink()


def test_src_tree_has_no_partition_crossings():
    """The real source tree keeps every schedule_delivery call and lane
    internal inside the two boundary modules."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    report = run_analysis([str(src)], select=["determinism"])
    crossings = [f for f in report.active
                 if f.check == "determinism.partition-crossing"]
    assert crossings == []
