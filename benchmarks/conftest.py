"""Shared infrastructure for the benchmark harness.

Every ``test_report_*`` benchmark prints the series/rows it reproduces AND
records them in ``benchmarks/results/<module>.txt``, so EXPERIMENTS.md can
cite concrete, regenerable numbers. A module's file holds one session's
rows: its first write of a session truncates, later ones append. Run with::

    pytest benchmarks/ --benchmark-only            # timing tables
    pytest benchmarks/ -s                          # also show report rows
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def written_results():
    """Result files this session has already written to."""
    return set()


@pytest.fixture
def report(request, written_results):
    """A callable that prints a line and records it to the module's result file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    module = request.module.__name__
    path = RESULTS_DIR / f"{module}.txt"
    lines = []

    def emit(line: str = "") -> None:
        print(line)
        lines.append(line)

    yield emit
    if lines:
        # a re-run replaces the last session's table instead of stacking a
        # second reading of the same gate under it
        mode = "a" if path in written_results else "w"
        written_results.add(path)
        with open(path, mode, encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
