#!/usr/bin/env python
"""Which functions in ``src/`` have a reader other than the tests.

Runs the program's readers, each in a fresh process under a call-level
``sys.settrace``, and records which function of ``src/`` each one calls:

- ``e2e``: the end-to-end benchmark's traced repeat of each of its four
  workloads (``benchmarks/e2e/run.py --workload W --traced``, imported
  read-only and run in-process, so the tracer's wrap table and the
  per-layer readers count);
- ``examples``: every ``examples/*.py``;
- ``claims``: the claim benches (``benchmarks/bench_fig*``,
  ``bench_claim*``, ``bench_ext*``), as CI runs them;
- ``smoke``: ``scripts/smoke_all.py``;
- ``tests``: the tier-1 suite.

A function is keyed by module and qualname. A code object is mapped to its
definition by file, first line and name (the first line of a decorated
function is its first decorator's), so the answer needs no ``co_qualname``
and no line events. A function's lines are its physical lines less those of
the functions nested in it. A function that only declares an interface
(its body is a docstring, ``pass``, ``...`` or ``raise
NotImplementedError``) is not counted.

Usage::

    python scripts/census.py            # one row per module
    python scripts/census.py --check    # and gate against census.txt

``--check`` fails when a function that no reader but the tests reaches is
not listed in ``scripts/census.txt`` with a reason, when a listed function
is reached by another reader, when a listed function is gone, and when a
reason is not one of ``REASONS``. The list can only be kept exact, so it
shrinks unless a change argues an addition.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIST_FILE = Path(__file__).resolve().parent / "census.txt"

#: the readers, in table order; ``tests`` is last and is not a reader
#: that takes a function off the list
READERS = ("e2e", "examples", "claims", "smoke", "tests")
WORKLOADS = ("campus_steady", "lookalike_churn", "query_storm",
             "range_federation")
#: readers run at once, each in its own process
JOBS = 2
#: the closed set of reasons a tests-only function may stay for;
#: ``pending:`` is followed by the ROADMAP item that will read it
REASONS = ("safety", "external-api", "reference", "paper-model", "pending",
           "debug")

#: (file relative to the census root, first line, name) of a code object
Site = Tuple[str, int, str]


@dataclass(frozen=True)
class Function:
    key: str      # "module:qualname"
    path: str     # file relative to the census root
    first: int    # first line: the first decorator's, else the def's
    name: str
    lines: int    # physical lines less those of nested functions


# -- definitions ------------------------------------------------------------

def _declaration(node: ast.AST) -> bool:
    """True when a function only declares an interface: its body is a
    docstring, ``pass``, ``...`` or ``raise NotImplementedError``."""
    for stmt in node.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str)):
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None and "NotImplementedError" \
                in ast.unparse(stmt.exc):
            continue
        return False
    return True


def _functions_in(path: Path, root: Path) -> List[Function]:
    rel = path.relative_to(root).as_posix()
    module = rel[:-3].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: List[Tuple[str, ast.AST, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                setter = [d.attr for d in child.decorator_list
                          if isinstance(d, ast.Attribute)
                          and d.attr in ("setter", "deleter")]
                if setter:
                    qualname += "." + setter[0]
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((qualname, child, first))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    # each line belongs to the innermost function around it
    owner: Dict[int, str] = {}
    for qualname, node, first in sorted(
            found, key=lambda item: item[1].end_lineno - item[2], reverse=True):
        for line in range(first, node.end_lineno + 1):
            owner[line] = qualname
    counts: Dict[str, int] = {}
    for qualname in owner.values():
        counts[qualname] = counts.get(qualname, 0) + 1
    return [Function(f"{module}:{qualname}", rel, first, node.name,
                     counts.get(qualname, 0))
            for qualname, node, first in found if not _declaration(node)]


def definitions(root: Path = SRC) -> Dict[str, Function]:
    """Every counted function under ``root``, by key."""
    functions: Dict[str, Function] = {}
    for path in sorted(root.rglob("*.py")):
        for function in _functions_in(path, root):
            if function.key in functions:
                raise SystemExit(f"census: two definitions of {function.key}")
            functions[function.key] = function
    return functions


# -- tracing ----------------------------------------------------------------

def trace_reached(run: Callable[[], object], root: Path = SRC) -> Tuple[object, Set[Site]]:
    """Call ``run()`` and return its result and the sites it called under
    ``root``. The tracer sees calls only (it installs no local tracer), and
    whatever tracer was installed before is put back. A run that replaces
    the tracer and does not put it back raises: its reach would be short."""
    seen: Dict[int, object] = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code  # holding it keeps its id from being reused
        return None

    previous = sys.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
        intact = sys.gettrace() is tracer
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    if not intact:
        raise RuntimeError("the run replaced the census tracer")
    prefix = str(root.resolve()) + os.sep
    sites: Set[Site] = set()
    for code in seen.values():
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(prefix):
            sites.add((Path(filename).relative_to(root.resolve()).as_posix(),
                       code.co_firstlineno, code.co_name))
    return result, sites


def classify(functions: Dict[str, Function],
             reached: Dict[str, Set[Site]]) -> Dict[str, FrozenSet[str]]:
    """The readers that reached each function."""
    by_site = {(f.path, f.first, f.name): key for key, f in functions.items()}
    readers: Dict[str, Set[str]] = {key: set() for key in functions}
    for reader, sites in reached.items():
        for site in sites:
            key = by_site.get(site)
            if key is not None:
                readers[key].add(reader)
    return {key: frozenset(names) for key, names in readers.items()}


# -- the list ---------------------------------------------------------------

def load_list(path: Path = LIST_FILE) -> Dict[str, str]:
    """``key -> reason`` from lines ``module:qualname  reason``; ``#`` starts
    a comment."""
    listed: Dict[str, str] = {}
    if not path.exists():
        return listed
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SystemExit(f"{path}:{number}: want 'module:qualname reason'")
        if fields[0] in listed:
            raise SystemExit(f"{path}:{number}: {fields[0]} is listed twice")
        listed[fields[0]] = fields[1]
    return listed


def tests_only(classes: Dict[str, FrozenSet[str]]) -> List[str]:
    """Functions no reader but the tests reaches (the tests may not either)."""
    return sorted(key for key, readers in classes.items()
                  if not readers - {"tests"})


def check(classes: Dict[str, FrozenSet[str]], listed: Dict[str, str]) -> List[str]:
    """Every way the list and the census disagree, one line each."""
    problems = []
    for key in tests_only(classes):
        if key not in listed:
            where = "the tests only" if classes[key] else "no reader"
            problems.append(f"unlisted: {key} is reached by {where}")
    for key, reason in sorted(listed.items()):
        if key not in classes:
            problems.append(f"stale: {key} is listed but gone")
        elif classes[key] - {"tests"}:
            problems.append(f"stale: {key} is listed but reached by "
                            + ", ".join(sorted(classes[key] - {"tests"})))
        kind, _, item = reason.partition(":")
        if kind not in REASONS or (kind == "pending") != bool(item):
            problems.append(f"reason: {key} has {reason!r}, not one of "
                            f"{', '.join(REASONS)} (pending:<ROADMAP item>)")
    return problems


# -- the table --------------------------------------------------------------

def table(functions: Dict[str, Function],
          classes: Dict[str, FrozenSet[str]]) -> List[str]:
    columns = ("lines",) + READERS[:-1] + ("tests only", "unreached")
    rows: Dict[str, List[int]] = {}
    for key, function in functions.items():
        module = key.split(":", 1)[0]
        row = rows.setdefault(module, [0] * len(columns))
        readers = classes[key]
        row[0] += function.lines
        for index, reader in enumerate(READERS[:-1], 1):
            if reader in readers:
                row[index] += function.lines
        if readers == {"tests"}:
            row[-2] += function.lines
        elif not readers:
            row[-1] += function.lines
    rows["total"] = [sum(row[i] for row in rows.values())
                     for i in range(len(columns))]
    width = max(len(module) for module in rows)
    out = [f"{'module':<{width}}" + "".join(f"{c:>11}" for c in columns)]
    for module in sorted(rows, key=lambda m: (m == "total", m)):
        out.append(f"{module:<{width}}"
                   + "".join(f"{n:>11}" for n in rows[module]))
    only = tests_only(classes)
    out.append(f"functions: {len(functions)}; reached by no reader but the "
               f"tests: {len(only)} "
               f"({sum(functions[key].lines for key in only)} lines)")
    return out


# -- running the readers ----------------------------------------------------

def _jobs() -> List[Tuple[str, str]]:
    """(reader, argument) pairs, one process each, longest first."""
    return ([("tests", ""), ("claims", "")]
            + [("e2e", name) for name in reversed(WORKLOADS)]
            + [("smoke", "")]
            + [("examples", path.name)
               for path in sorted((ROOT / "examples").glob("*.py"))])


def _run_reader(reader: str, argument: str, scratch: Path) -> int:
    """Run one reader in this process (``--reader``); exit status."""
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if reader == "e2e":
        sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
        sys.dont_write_bytecode = True  # leave the benchmark directory as it is
        import run  # the benchmark's own entry point, read-only

        run.OUT_DIR = scratch
        sys.argv = ["run.py", "--workload", argument, "--traced",
                    "--out", str(scratch / "result.json")]
        return run.main()
    if reader == "examples":
        import runpy

        sys.argv = [argument]
        try:
            runpy.run_path(str(ROOT / "examples" / argument), run_name="__main__")
        except SystemExit as stop:
            return 0 if stop.code in (None, 0) else 1
        return 0
    if reader == "smoke":
        sys.path.insert(0, str(ROOT / "scripts"))
        sys.argv = ["smoke_all.py"]  # smoke_obs reads an output directory
        import smoke_all

        return smoke_all.main()
    import pytest

    options = ["-q", "-p", "no:cacheprovider"]
    if reader == "claims":
        files = sorted(str(p.relative_to(ROOT)) for pattern in
                       ("bench_fig*.py", "bench_claim*.py", "bench_ext*.py")
                       for p in (ROOT / "benchmarks").glob(pattern))
        return int(pytest.main(options + ["-m", "", "--benchmark-disable"] + files))
    return int(pytest.main(options + ["tests"]))


def _spawn(job: Tuple[str, str], scratch: Path) -> Tuple[Tuple[str, str], int, Set[Site], str]:
    reader, argument = job
    directory = Path(tempfile.mkdtemp(prefix=f"{reader}-", dir=scratch))
    out = directory / "reached.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--reader", reader,
         "--argument", argument, "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    sites = ({tuple(site) for site in json.loads(out.read_text())}
             if done.returncode == 0 and out.exists() else set())
    return job, done.returncode, sites, done.stdout


def reach() -> Dict[str, Set[Site]]:
    """Run every reader, ``JOBS`` at a time; the sites each one called.
    Exits on a failed one."""
    reached: Dict[str, Set[Site]] = {reader: set() for reader in READERS}
    failed = []
    with tempfile.TemporaryDirectory(prefix="census-") as scratch, \
            ThreadPoolExecutor(max_workers=JOBS) as pool:
        for (reader, argument), status, sites, output in pool.map(
                lambda job: _spawn(job, Path(scratch)), _jobs()):
            if status != 0:
                failed.append(f"{reader} {argument}".strip())
                print(output[-3000:], file=sys.stderr)
            reached[reader] |= sites
    if failed:
        raise SystemExit(f"census: reader failed: {', '.join(failed)}")
    return reached


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless {LIST_FILE.name} lists exactly the "
                             "functions no reader but the tests reaches")
    parser.add_argument("--reader", choices=READERS, help=argparse.SUPPRESS)
    parser.add_argument("--argument", default="", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.reader:
        status, sites = trace_reached(lambda: _run_reader(
            args.reader, args.argument, args.out.parent))
        if status == 0:
            args.out.write_text(json.dumps(sorted(sites)))
        return int(status)

    started = time.monotonic()
    functions = definitions()
    classes = classify(functions, reach())
    print("\n".join(table(functions, classes)))
    print(f"census: {time.monotonic() - started:.0f} s")
    if not args.check:
        return 0
    problems = check(classes, load_list())
    for problem in problems:
        print(problem)
    print(f"census --check: {'FAIL' if problems else 'OK'} "
          f"({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
