"""No module in ``src/repro`` holds a process-wide id counter.

An ``itertools.count`` bound when a module is imported (at module level,
inside a module-level ``if``/``try``, or in a class body) numbers things
for the whole Python process, so a deployment's ids, and the ledger that
hashes them, would depend on every deployment that ran before it. Each id
is minted by its owner instead: a process numbers its messages, a mediator
its subscriptions, a Configuration Manager its configurations and an
application the queries it names. A counter inside a function or method
(an instance attribute, a local) is fine.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _import_time_statements(body):
    """The statements that run when the module is imported."""
    for node in body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from _import_time_statements(node.body)
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(handler.body
                            for handler in getattr(node, "handlers", []))):
                yield from _import_time_statements(block)


def _calls_outside_lambdas(node):
    """Every call under ``node`` that runs when ``node`` is evaluated."""
    if isinstance(node, ast.Lambda):
        return
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _calls_outside_lambdas(child)


def module_counters(source):
    """Line of each ``itertools.count`` bound at import time in ``source``."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "itertools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            functions |= {alias.asname or alias.name for alias in node.names
                          if alias.name == "count"}

    def is_count(func):
        if isinstance(func, ast.Attribute):
            return (func.attr == "count" and isinstance(func.value, ast.Name)
                    and func.value.id in modules)
        return isinstance(func, ast.Name) and func.id in functions

    lines = []
    for statement in _import_time_statements(tree.body):
        if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                and statement.value is not None:
            lines += [call.lineno
                      for call in _calls_outside_lambdas(statement.value)
                      if is_count(call.func)]
    return lines


def test_no_module_binds_a_process_wide_counter():
    findings = [f"{path.relative_to(SRC)}:{line}"
                for path in sorted(SRC.rglob("*.py"))
                for line in module_counters(path.read_text("utf-8"))]
    assert findings == []


def test_the_scan_sees_aliases_class_bodies_and_guards():
    source = (
        "import itertools\n"
        "import itertools as it\n"
        "from itertools import count as tally\n"
        "_a = itertools.count(1)\n"
        "class Record:\n"
        "    ids = it.count()\n"
        "    make = staticmethod(lambda: itertools.count())\n"
        "if True:\n"
        "    _b: object = next(tally(5))\n"
        "def fresh():\n"
        "    local = itertools.count(1)\n"
        "    return local\n"
        "class Owner:\n"
        "    def __init__(self):\n"
        "        self.ids = itertools.count(1)\n"
    )
    assert module_counters(source) == [4, 6, 9]
