"""The determinism family catches clocks, RNGs and ordering hazards."""

import pathlib

from repro.analysis.determinism import DeterminismChecker
from repro.analysis.findings import sort_findings
from repro.analysis.runner import run_analysis
from repro.analysis.source import SourceFile

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DET_FIXTURE = FIXTURES / "det_violations.py"


def _check(path):
    source = SourceFile.from_text(path.read_text(encoding="utf-8"),
                                  path.as_posix())
    return sort_findings(DeterminismChecker().check(source))


def test_fixture_findings_exact():
    findings = _check(DET_FIXTURE)
    assert [(f.check, f.line) for f in findings] == [
        ("determinism.wall-clock", 17),       # time.time()
        ("determinism.wall-clock", 18),       # datetime.now()
        ("determinism.unseeded-random", 22),  # random.random()
        ("determinism.unseeded-random", 26),  # random.Random() unseeded
        ("determinism.set-iteration", 32),    # for peer in set(...)
        ("determinism.popitem", 36),          # table.popitem()
    ]


def test_seeded_rng_and_quiet_iteration_not_flagged():
    findings = _check(DET_FIXTURE)
    lines = {f.line for f in findings}
    assert 13 not in lines  # random.Random(7) is seeded
    assert 41 not in lines  # set iteration off the message path


def test_instrumentation_modules_get_no_wall_clock_exemption():
    """A module that once measured host time on purpose is checked like
    any other: both the clock read and the global RNG draw are flagged."""
    text = (
        "import time\n"
        "import random\n"
        "def probe():\n"
        "    t = time.perf_counter()\n"
        "    return t + random.random()\n"
    )
    source = SourceFile.from_text(text, "src/repro/obs/profiling.py")
    checks = sorted(f.check for f in DeterminismChecker().check(source))
    assert checks == ["determinism.unseeded-random", "determinism.wall-clock"]


def test_run_loop_module_is_flagged_like_its_neighbours():
    """sim.py reads no host clock, so it has no allowlist entry: a
    perf_counter read there is flagged exactly as in ``repro.net``'s
    other modules."""
    text = (
        "import time\n"
        "import random\n"
        "def slice_profile():\n"
        "    return time.perf_counter() + random.random()\n"
    )

    def checks(module_path):
        source = SourceFile.from_text(text, module_path)
        return sorted(f.check for f in DeterminismChecker().check(source))

    expected = ["determinism.unseeded-random", "determinism.wall-clock"]
    assert checks("src/repro/net/sim.py") == expected
    assert checks("src/repro/net/transport.py") == expected


def test_from_import_aliases_are_tracked():
    text = (
        "from time import perf_counter as pc\n"
        "from random import shuffle\n"
        "def go(items):\n"
        "    shuffle(items)\n"
        "    return pc()\n"
    )
    source = SourceFile.from_text(text, "pkg/mod.py")
    checks = sorted(f.check for f in DeterminismChecker().check(source))
    assert checks == ["determinism.unseeded-random",
                      "determinism.wall-clock"]


def test_popitem_with_explicit_order_is_fine():
    text = (
        "def drain(self, table):\n"
        "    key, val = table.popitem(last=False)\n"
        "    self.send(key, 'k', val)\n"
    )
    source = SourceFile.from_text(text, "pkg/mod.py")
    assert DeterminismChecker().check(source) == []


def test_pragmas_suppress_but_stay_visible():
    report = run_analysis([str(FIXTURES / "pragma_ok.py")],
                          select=["determinism"])
    assert report.active == []
    assert sorted(f.check for f in report.suppressed) == [
        "determinism.set-iteration",
        "determinism.wall-clock",
    ]
