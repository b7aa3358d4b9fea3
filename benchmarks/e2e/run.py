#!/usr/bin/env python3
"""The end-to-end benchmark of the full SCI path.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                                [--seconds S] [--traced]

With ``--workload`` one workload runs in this process: a discarded warm-up,
then freshly built repeats until ``--seconds`` have been measured (at least
``MIN_REPEATS``); every end-to-end metric is printed by name with its unit,
median and quartiles (host times in calibrated seconds, see ``pacing.py``),
the outputs are checked against the oracle, a ``sci.bench/2`` result file is
written to ``benchmarks/e2e/out/`` and the last line of standard output is
the result as one JSON object. ``--trace 1``
(or ``--traced``) instead runs one repeat with span recorders wrapped around
every layer's entry points and reports the per-layer metrics.

Without ``--workload`` each of the four workloads runs in a fresh process
(so ``peak_rss_mb`` is that workload's own) and the results are merged into
one file that ``compare.py`` can diff against another.

Exit status is non-zero when the oracle check fails, when repeats of one
seed disagree on any simulated metric, or when ``repro`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import catalog  # noqa: E402
import report  # noqa: E402

try:  # these need src/repro; main() reports its absence
    import deployment  # noqa: E402
    import generate  # noqa: E402
    import layers  # noqa: E402
    import oracle  # noqa: E402
    import pacing  # noqa: E402
    import trace  # noqa: E402
except ImportError as exc:
    MISSING: object = exc
else:
    MISSING = None

MIN_REPEATS = 5
OUT_DIR = HERE / "out"
#: simulated quantities that must be identical on every repeat of one seed
#: (the S-clock end-to-end metrics among them)
SIM_KEYS = ("sim_delivery_p50", "sim_delivery_p99", "sim_messages_per_op",
            "deliveries", "sim_end")


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: benchmarks/e2e/out/...)")
    args = parser.parse_args()
    if args.traced:
        args.trace = 1
    return args


def _last_line(result: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics})


def measure(args: argparse.Namespace) -> int:
    """One workload in this process; returns the exit status."""
    load_start = report.load_average()
    report.warn_if_loaded(load_start)
    plan = generate.generate(args.workload, args.seed)
    expected = oracle.expect(plan)
    attempted = generate.operations(plan)
    result: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "traced": bool(args.trace),
        "attempted": attempted}

    reference = pacing.Reference()
    # everything alive now (modules, the plan, the reference kernel's working
    # set) stays for the whole process: keep it out of every later collection
    gc.freeze()
    # young generations collect as usual; the oldest is collected once at the
    # end of each phase (deployment.run) instead of wherever the allocation
    # count happens to cross a threshold, which moves with the seed
    young, middle, _oldest = gc.get_threshold()
    gc.set_threshold(young, middle, 1_000_000)
    warm = deployment.run_once(plan, pacing.Pacer(reference))
    failures = _failures(expected, warm)
    sim = warm.sim_metrics()
    untraced_s = sum(warm.phase_s.values())
    del warm
    if args.trace:
        metrics, exit_code = _traced(args, plan, expected, sim, failures,
                                     untraced_s, result, reference)
    else:
        metrics, exit_code = _untraced(args, plan, expected, sim, failures,
                                       result, reference)
    result["environment"] = report.fingerprint(load_start)
    report.warn_if_loaded(result["environment"]["load_1m_end"])
    suffix = ".traced" if args.trace else ""
    target = args.out or OUT_DIR / f"{args.workload}{suffix}.json"
    report.write_result(target, result)
    print(f"\nresult file: {target}")
    if exit_code:
        print(f"FAILED: {result['failures']}", file=sys.stderr)
    print(_last_line(result, metrics))
    return exit_code


def _failures(expected: Dict[str, Any], dep) -> Dict[str, int]:
    """Failed operations of one repeat, by cause."""
    counts = oracle.check(expected, dep.observed())
    counts["stuck_queries"] = dep.stuck_queries
    counts["audit"] = dep.audit_failures
    return counts


def _verdict(result: Dict[str, Any], failures: Dict[str, int],
             sim_stable: bool) -> int:
    failed = sum(failures.values())
    result.update(failures=failures, failed=failed, sim_stable=sim_stable,
                  correct=failed == 0 and sim_stable,
                  failed_ops_share=failed / result["attempted"])
    return 0 if result["correct"] else 1


def _untraced(args, plan, expected, sim, failures, result, reference):
    repeats: List[Dict[str, float]] = []
    raw: List[Dict[str, float]] = []
    sim_stable = True
    started = perf_counter()
    while (len(repeats) < MIN_REPEATS
           or perf_counter() - started < args.seconds):
        dep = deployment.run_once(plan, pacing.Pacer(reference))
        sim_stable &= (_failures(expected, dep) == failures
                       and dep.sim_metrics() == sim)
        repeats.append(dep.host_metrics())
        raw.append(dict(dep.raw_s, slices=len(dep.pacer.slice_times),
                        slice_us=1e6 * statistics.median(
                            dep.pacer.slice_times)))
        del dep
    values = {name: [repeat[name] for repeat in repeats]
              for name in repeats[0]}
    values["peak_rss_mb"] = [deployment.peak_rss_mb()]
    for name, _unit, _better, clock, _bound in catalog.END_TO_END:
        if clock == "S":
            values[name] = [sim[name]]
    exit_code = _verdict(result, failures, sim_stable)

    rows, metrics, table = [], {}, {}
    for name, unit, better, clock, bound in catalog.END_TO_END:
        stats = report.quartiles(values[name])
        rows.append((name, unit, stats["median"], stats["q1"], stats["q3"],
                     stats["n"]))
        metrics[name] = {"value": stats["median"], "unit": unit}
        table[name] = dict(stats, unit=unit, better=better, clock=clock,
                           bound=bound, values=values[name])
    report.print_table(
        f"{args.workload}  seed {args.seed}  {len(repeats)} repeats "
        f"(one warm-up discarded)  failed ops {result['failed']}"
        f"/{result['attempted']}", rows)
    print(f"  failed_ops_share = {result['failed_ops_share']:.6g}   "
          f"(S clock; bound 0)   causes: {failures}")
    speed = report.quartiles([row["slice_us"] for row in raw])
    print(f"  reference slice: median {speed['median']:.1f} us "
          f"(nominal {1e6 * pacing.NOMINAL_SLICE_S:.0f} us; q1 {speed['q1']:.1f}, "
          f"q3 {speed['q3']:.1f}) - host times above are calibrated seconds")
    result.update(repeats=len(repeats), end_to_end=table, raw_wall=raw,
                  sim={name: sim[name] for name in SIM_KEYS})
    return metrics, exit_code


def _traced(args, plan, expected, sim, failures, untraced_s, result,
            reference):
    recorder = trace.SpanRecorder()
    recorder.wrap()
    try:
        recorder.calibrate()
        dep = deployment.run_once(plan, pacing.Pacer(reference), recorder)
    finally:
        recorder.unwrap()
    exit_code = _verdict(result, failures,
                         _failures(expected, dep) == failures
                         and dep.sim_metrics() == sim)
    summary = recorder.summarise()
    values, absent = layers.layer_metrics(dep, recorder, summary, untraced_s)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = OUT_DIR / f"{args.workload}.trace.jsonl"
    written = recorder.write_jsonl(trace_file)

    units = {name: unit for name, unit, _better in catalog.PER_LAYER}
    print(f"\n{args.workload}  seed {args.seed}  traced repeat: "
          f"{written} spans -> {trace_file}")
    print(f"  {'metric':<36}{'unit':<8}{'value':>16}")
    for name, value in values.items():
        print(f"  {name:<36}{units[name]:<8}{value:>16.6g}")
    total = sum(row["self_s"] for row in summary["layers"].values()) or 1.0
    print("\n  self-time share by layer: " + "  ".join(
        f"{layer} {100.0 * row['self_s'] / total:.1f}%"
        for layer, row in sorted(summary["layers"].items(),
                                 key=lambda item: -item[1]["self_s"])))
    root = values["trace.root_s"]
    print(f"  of the root span: {100.0 * values['trace.gc_s'] / root:.1f}% "
          f"end-of-phase collections, "
          f"{100.0 * values['trace.unattributed_s'] / root:.1f}% "
          f"unattributed; wrapper cost "
          f"{1e6 * (recorder.cost_inside + recorder.cost_outside):.2f} us/call")
    if absent:
        print("  absent: " + ", ".join(absent))
    result.update(
        per_layer={name: {"value": value, "unit": units[name]}
                   for name, value in values.items()},
        absent=absent, untraced_s=untraced_s,
        trace={"spans": written, "file": str(trace_file),
               "raw_root_s": summary["root_s"],
               "wrapper_cost_us": 1e6 * (recorder.cost_inside
                                         + recorder.cost_outside),
               "paths": summary["paths"]},
        sim={name: sim[name] for name in SIM_KEYS})
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return metrics, exit_code


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process each; one merged result file."""
    merged: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                              "traced": bool(args.trace), "workloads": {}}
    exit_code = 0
    for name, _why in catalog.WORKLOADS:
        single = OUT_DIR / f"{name}{'.traced' if args.trace else ''}.json"
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(single)])
        exit_code = exit_code or done.returncode
        if single.exists():
            merged["workloads"][name] = report.load_result(single)[
                "workloads"][name]
    kind = "traced" if args.trace else "e2e"
    target = args.out or OUT_DIR / f"{kind}-seed{args.seed}.json"
    report.write_result(target, merged)
    print(f"\nmerged result file: {target}")
    return exit_code


def main() -> int:
    args = _arguments()
    if MISSING is not None:
        print(f"cannot import the program ({MISSING}); run from a checkout "
              f"that has src/repro", file=sys.stderr)
        return 2
    logging.getLogger("repro").setLevel(logging.ERROR)
    return measure(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
