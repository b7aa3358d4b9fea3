"""Statistics, the environment fingerprint and the ``sci.bench/2`` file."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

SCHEMA = "sci.bench/2"
REPO_ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them (one value: all three equal it)."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only, "n": len(values)}
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(("git", "-C", str(REPO_ROOT)) + args,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def fingerprint(load_start: float) -> Dict[str, Any]:
    """Where and on what this result was measured."""
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "load_1m_start": load_start,
        "load_1m_end": load_average(),
    }


def warn_if_loaded(load: float) -> None:
    """Loud, but not a failure: the numbers are still printed."""
    cores = os.cpu_count() or 1
    if load > cores:
        print(f"\n*** WARNING: 1-minute load average {load:.2f} exceeds the "
              f"{cores} core(s) of this machine; host-clock metrics of this "
              f"run are not trustworthy ***\n", file=sys.stderr)


def print_table(title: str, rows: List[tuple]) -> None:
    """``rows``: (name, unit, median, q1, q3, n)."""
    print(f"\n{title}")
    print(f"  {'metric':<34}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, unit, median, q1, q3, n in rows:
        print(f"  {name:<34}{unit:<8}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{n:>4}")


def write_result(path: Path, result: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict({"schema": SCHEMA}, **result), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def load_result(path: Path) -> Dict[str, Any]:
    """A result file as ``{"workloads": {name: result}}`` whichever of the
    two shapes (one workload, or a merged set) it was written in."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} file")
    if "workloads" not in data:
        data = {"schema": SCHEMA, "workloads": {data["workload"]: data}}
    return data
