#!/usr/bin/env python
"""Run every smoke gate in sequence: perf, observability, chaos, ledger,
analysis.

Each gate is an independent module with a ``main() -> int``; this runner
executes them all (no fail-fast, so one broken gate does not hide another)
and exits non-zero if any failed. Usage::

    PYTHONPATH=src python scripts/smoke_all.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import smoke_analysis  # noqa: E402
import smoke_chaos  # noqa: E402
import smoke_ledger  # noqa: E402
import smoke_obs  # noqa: E402
import smoke_perf  # noqa: E402

GATES = (
    ("smoke-perf", smoke_perf.main),
    ("smoke-obs", smoke_obs.main),
    ("smoke-chaos", smoke_chaos.main),
    ("smoke-ledger", smoke_ledger.main),
    ("smoke-analysis", smoke_analysis.main),
)


def main() -> int:
    failures = []
    for name, gate in GATES:
        print(f"=== {name} ===")
        if gate() != 0:
            failures.append(name)
        print()
    if failures:
        print(f"smoke-all: FAIL ({', '.join(failures)})")
        return 1
    print(f"smoke-all: all {len(GATES)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
