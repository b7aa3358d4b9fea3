#!/usr/bin/env python
"""Observability smoke check: run one instrumented bench, validate its JSON.

Runs a reduced Figure-1 workload (both routing systems, two sizes), writes
the metrics artefact, reads it back through the schema validator and
re-checks the hotspot and log-growth claims offline. It also resolves every
path the end-to-end benchmark's tracer wraps (``benchmarks/e2e/trace.py``,
loaded read-only): the tracer lists a path that no longer resolves as
*absent* instead of failing, so a refactor of ``src/`` could otherwise
silently push a layer's time out of the per-layer table. Exits non-zero on
any failure, so CI can gate on it. Usage::

    PYTHONPATH=src python scripts/smoke_obs.py [output-dir]

The artefact carries wall times, so the default output directory is
git-ignored: a smoke run leaves ``git status`` clean.
"""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.experiments import (  # noqa: E402
    check_hotspot_claim,
    check_log_growth_claim,
    figure1_artifact,
)
from repro.obs.export import (  # noqa: E402
    ArtifactError,
    load_metrics_json,
    write_metrics_document,
)

SIZES = (8, 32)
MESSAGES = 120

#: wrap paths allowed not to resolve, with why
UNRESOLVED_ALLOWED = {
    "repro.entities.entity.BaseComponent._send_heartbeat":
        "components run no heartbeat timer: the Range Service renews leases",
}


def check_wrap_paths() -> bool:
    """Every e2e tracer wrap path resolves, or is allowed not to."""
    spec = importlib.util.spec_from_file_location(
        "e2e_trace", ROOT / "benchmarks" / "e2e" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory as it is
    try:
        spec.loader.exec_module(trace)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    unresolved = {row[1] for row in trace.WRAP_TABLE
                  if trace.resolve(row[1]) is None}
    unexpected = sorted(unresolved - set(UNRESOLVED_ALLOWED))
    print(f"smoke-obs: e2e wrap paths: {len(trace.WRAP_TABLE)} listed, "
          f"{len(unresolved)} unresolved (allowed: "
          f"{len(unresolved & set(UNRESOLVED_ALLOWED))}) "
          f"-> {'ok' if not unexpected else 'FAIL'}")
    for path in unexpected:
        print(f"smoke-obs: FAIL — wrap path no longer resolves: {path}")
    return not unexpected


def main() -> int:
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                           else "benchmarks/results/smoke")
    path = out_dir / "smoke_obs.metrics.json"

    print(f"smoke-obs: running fig1 at N={SIZES} with {MESSAGES} messages...")
    artifact = figure1_artifact(sizes=SIZES, messages=MESSAGES,
                                meta={"smoke": True})
    write_metrics_document(artifact, path)
    print(f"smoke-obs: wrote {path} ({path.stat().st_size} bytes)")

    try:
        loaded = load_metrics_json(path)
    except ArtifactError as exc:
        print(f"smoke-obs: FAIL — artefact does not validate: {exc}")
        return 1

    hotspot = check_hotspot_claim(loaded, max(SIZES))
    growth = check_log_growth_claim(loaded, min(SIZES), max(SIZES))
    print(f"smoke-obs: hotspot@{max(SIZES)}: "
          f"root={hotspot['hierarchy_root_load']:.0f} vs "
          f"overlay max={hotspot['overlay_max_load']:.0f} "
          f"-> {'ok' if hotspot['ok'] else 'FAIL'}")
    print(f"smoke-obs: hop growth {min(SIZES)}->{max(SIZES)}: "
          f"{growth['small_hops']:.2f} -> {growth['large_hops']:.2f} "
          f"-> {'ok' if growth['ok'] else 'FAIL'}")

    if not (hotspot["ok"] and growth["ok"]):
        print("smoke-obs: FAIL — claim shape not reproduced")
        return 1
    if not check_wrap_paths():
        return 1
    print("smoke-obs: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
