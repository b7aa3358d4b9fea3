#!/usr/bin/env python3
"""Diff two ``sci.bench/2`` result files: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change. For every workload
and end-to-end metric present in both, one of

* ``better``      B's median beats A's by more than A's own run-to-run spread
* ``same``        neither better nor worse
* ``worse``       B's median is worse than A's by more than the metric's bound
* ``unresolved``  the spread of either side is wider than the bound, so the
                  bound cannot be checked — unless every run of one side
                  beats every run of the other, which settles it

is printed with the ratio B/A and its base. Bounds come from
``BENCHMARK.json``. Simulated (S-clock) metrics, and per-layer counts when
both files are traced, must be identical when both files used one seed: any
difference is a change in behaviour and is reported as ``changed``.

Exit status is non-zero on any ``worse`` or ``changed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402


def _spread(values: Sequence[float]) -> float:
    stats = report.quartiles(values)
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def classify(base: Sequence[float], change: Sequence[float], better: str,
             bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = report.quartiles(base)["median"]
    change_median = report.quartiles(change)["median"]
    worse_by = (sign * (change_median - base_median) / abs(base_median)
                if base_median else 0.0)
    if max(_spread(base), _spread(change)) > bound:
        # too noisy for the bound: only a clean separation decides
        if sign * (min(change) - max(base)) > 0:
            return "worse"
        if sign * (max(change) - min(base)) < 0:
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    # a side with a single value (peak_rss_mb) has no spread to beat: there
    # only an improvement beyond the bound counts
    margin = _spread(base) if min(len(base), len(change)) > 1 else bound
    if -worse_by > margin:
        return "better"
    return "same"


def compare(base: Dict[str, Any], change: Dict[str, Any],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x metric that both files hold."""
    bounds = {row["name"]: row for row in benchmark["end_to_end"]}
    rows: List[Dict[str, Any]] = []
    for workload, a in base["workloads"].items():
        b = change["workloads"].get(workload)
        if b is None:
            continue
        same_seed = a.get("seed") == b.get("seed")
        for name, a_row in a.get("end_to_end", {}).items():
            b_row = b.get("end_to_end", {}).get(name)
            if b_row is None or name not in bounds:
                continue
            row = {"workload": workload, "metric": name,
                   "unit": a_row["unit"], "base": a_row["median"],
                   "ratio": (b_row["median"] / a_row["median"]
                             if a_row["median"] else float("nan"))}
            if a_row.get("clock") == "S" and same_seed:
                row["verdict"] = ("same" if a_row["values"] == b_row["values"]
                                  else "changed")
            else:
                row["verdict"] = classify(
                    a_row["values"], b_row["values"],
                    bounds[name]["better"], bounds[name]["bound"])
            rows.append(row)
        if same_seed and a.get("failures") != b.get("failures"):
            rows.append({"workload": workload, "metric": "failed_ops",
                         "unit": "count", "base": a.get("failed", 0),
                         "ratio": float("nan"), "verdict": "changed"})
        if same_seed:
            for name, a_row in a.get("per_layer", {}).items():
                b_row = b.get("per_layer", {}).get(name)
                if (b_row is not None and a_row["unit"] == "count"
                        and a_row["value"] != b_row["value"]):
                    rows.append({
                        "workload": workload, "metric": name, "unit": "count",
                        "base": a_row["value"], "verdict": "changed",
                        "ratio": (b_row["value"] / a_row["value"]
                                  if a_row["value"] else float("nan"))})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=report.REPO_ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows = compare(report.load_result(args.base),
                   report.load_result(args.change), benchmark)
    print(f"{'workload':<18}{'metric':<28}{'verdict':<12}{'B/A':>9}  base")
    for row in rows:
        print(f"{row['workload']:<18}{row['metric']:<28}{row['verdict']:<12}"
              f"{row['ratio']:>9.4f}  {row['base']:.6g} {row['unit']}")
    bad = [row for row in rows if row["verdict"] in ("worse", "changed")]
    print(f"\n{len(rows)} comparisons, {len(bad)} worse or changed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
