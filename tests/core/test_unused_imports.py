"""Every module-level import in ``src/repro`` is used by its module.

A module's imports are read from its AST (at module level, and inside a
module-level ``if``/``try`` such as ``if TYPE_CHECKING:``) and checked
against every name the module reads; a name inside a quoted annotation
(``def f() -> "Query":``) counts as read. Package ``__init__`` modules
re-export what they import and are left out.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _module_imports(body):
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(handler.body
                            for handler in getattr(node, "handlers", []))):
                yield from _module_imports(block)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {inner.id for inner in ast.walk(quoted)
                          if isinstance(inner, ast.Name)}
    return names


def unused_imports(source):
    """``(line, name)`` of each module-level import ``source`` never reads."""
    tree = ast.parse(source)
    read = _names_read(tree)
    unused = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    findings = [f"{path.relative_to(SRC)}:{line}: {name}"
                for path in sorted(SRC.rglob("*.py"))
                if path.name != "__init__.py"
                for line, name in unused_imports(path.read_text("utf-8"))]
    assert findings == []


def test_the_scan_sees_quoted_annotations_and_guarded_imports():
    source = (
        "from typing import TYPE_CHECKING, Dict, List\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    from repro.query.model import Query\n"
        "    from repro.core.ids import GUID\n"
        "def first(items: 'List[Query]') -> Dict:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(5, "GUID")]
