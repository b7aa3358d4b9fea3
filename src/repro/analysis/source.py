"""Source loading for the analysis suite.

Checkers never import the code they inspect — everything is AST-level, so
the linter can run over a tree with unsatisfied dependencies, and inspecting
a file can never execute it. A :class:`SourceFile` bundles the parse tree
with the raw text (pragma scanning) and a best-effort dotted module name
(checkers match module paths like ``repro.obs.catalog``, not filesystem
layouts).
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.analysis.pragmas import (
    collect_allows,
    collect_file_allows,
    suppresses,
)

#: process-lifetime parse statistics; ``parsed`` counts actual ast.parse
#: calls, ``cache_hits`` counts files served from :data:`_PARSE_CACHE`.
#: Tests assert on these to pin the parse-once-per-file property.
PARSE_STATS = {"parsed": 0, "cache_hits": 0}


@dataclass
class SourceFile:
    """One parsed python file under analysis."""

    path: str                       # as discovered/given, posix separators
    text: str
    tree: ast.Module
    module: str                     # dotted guess, e.g. "repro.net.sim"
    allows: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_allows: FrozenSet[str] = frozenset()

    @classmethod
    def from_text(cls, text: str, path: str) -> "SourceFile":
        """Build from in-memory source (the unit-test entry point)."""
        PARSE_STATS["parsed"] += 1
        tree = ast.parse(text)
        return cls(
            path=path,
            text=text,
            tree=tree,
            module=module_name(path),
            allows=collect_allows(text),
            file_allows=collect_file_allows(
                text, _first_statement_line(tree, text)),
        )

    def allowed_at(self, line: int, check: str) -> bool:
        if self.file_allows and suppresses(self.file_allows, check):
            return True
        allowed = self.allows.get(line)
        return bool(allowed) and suppresses(allowed, check)


def _first_statement_line(tree: ast.Module, text: str) -> int:
    """1-based line of the first non-docstring statement (the horizon an
    allow-file pragma must appear before); end of file when there is none."""
    body = tree.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if body:
        return body[0].lineno
    return text.count("\n") + 1


def module_name(path: str) -> str:
    """Dotted module path for a file path.

    Everything up to and including a ``src`` component is stripped, so
    ``src/repro/net/sim.py`` and ``repro/net/sim.py`` both map to
    ``repro.net.sim`` regardless of where the scan was rooted; a ``tests``
    component is kept but anchors the module there
    (``/abs/repo/tests/x.py`` -> ``tests.x``).
    """
    parts = list(pathlib.PurePosixPath(path.replace("\\", "/")).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for index, part in enumerate(parts):
        if part == "src":
            parts = parts[index + 1:]
            break
        if part == "tests":
            parts = parts[index:]
            break
    return ".".join(part for part in parts if part not in (".", "..", "/"))


def iter_python_files(root: pathlib.Path) -> Iterable[pathlib.Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


#: parsed-file memo shared by every run in this process, keyed by resolved
#: path; an entry is reused only while the file's (mtime_ns, size) signature
#: is unchanged. Checkers never mutate a SourceFile, so sharing is safe, and
#: the three families plus repeated runs (gate + protocol check) each parse a
#: given file exactly once.
_PARSE_CACHE: Dict[str, Tuple[Tuple[int, int], SourceFile]] = {}


def clear_parse_cache() -> None:
    _PARSE_CACHE.clear()


def _load_one(path: pathlib.Path, name: str) -> SourceFile:
    try:
        stat = path.stat()
        signature = (stat.st_mtime_ns, stat.st_size)
        cache_key = str(path.resolve())
    except OSError:
        signature, cache_key = None, None
    if cache_key is not None:
        cached = _PARSE_CACHE.get(cache_key)
        if cached is not None and cached[0] == signature:
            PARSE_STATS["cache_hits"] += 1
            return cached[1]
    source = SourceFile.from_text(path.read_text(encoding="utf-8"), name)
    if cache_key is not None and signature is not None:
        _PARSE_CACHE[cache_key] = (signature, source)
    return source


def load_sources(paths: Iterable[str]) -> Tuple[List[SourceFile], List[Tuple[str, int, str]]]:
    """Load every ``.py`` under ``paths``.

    Returns ``(sources, errors)`` where errors are ``(path, line, message)``
    for files that failed to read or parse — the runner turns those into
    findings rather than aborting the whole run.
    """
    sources: List[SourceFile] = []
    errors: List[Tuple[str, int, str]] = []
    for raw in paths:
        root = pathlib.Path(raw)
        if not root.exists():
            errors.append((str(raw), 0, "path does not exist"))
            continue
        for path in iter_python_files(root):
            name = path.as_posix()
            try:
                sources.append(_load_one(path, name))
            except OSError as exc:
                errors.append((name, 0, f"unreadable: {exc}"))
            except SyntaxError as exc:
                errors.append((name, exc.lineno or 0, f"syntax error: {exc.msg}"))
    return sources, errors
