"""The ``# sci: allow(<check>)`` escape hatch.

A pragma is a trailing comment on the *flagged line*::

    for leaf in leaf_set:   # sci: allow(determinism.set-iteration)

It suppresses findings whose check id equals one of the comma-separated
entries, or whose family matches an entry exactly (``allow(determinism)``
suppresses every ``determinism.*`` check on that line). A whole file can
opt out of a check with a module-top pragma::

    # sci: allow-file(determinism.wall-clock)

which must appear before the first real statement (docstring and imports
aside, a buried allow-file is ignored — suppression scope should be visible
at the top of the file). Suppressed findings are still counted and reported
in the run summary, so an allowlist cannot silently grow.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet

#: matches ``# sci: allow(a, b.c)`` anywhere in a line (pragma must live in
#: a comment; strings containing the pattern are a non-issue in practice
#: because the allow set only ever *suppresses*, never creates, findings)
PRAGMA_RE = re.compile(r"#\s*sci:\s*allow\(([^)]*)\)")

#: matches the whole-file variant ``# sci: allow-file(a, b.c)``
PRAGMA_FILE_RE = re.compile(r"#\s*sci:\s*allow-file\(([^)]*)\)")


def parse_allow(line: str) -> FrozenSet[str]:
    """Check ids allowed by pragmas on one source line."""
    allowed = set()
    for match in PRAGMA_RE.finditer(line):
        for entry in match.group(1).split(","):
            entry = entry.strip()
            if entry:
                allowed.add(entry)
    return frozenset(allowed)


def collect_allows(text: str) -> Dict[int, FrozenSet[str]]:
    """1-based line number -> allowed check ids, for lines carrying pragmas."""
    allows: Dict[int, FrozenSet[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if "sci:" not in line:
            continue  # cheap pre-filter; the regex is the real test
        allowed = parse_allow(line)
        if allowed:
            allows[number] = allowed
    return allows


def collect_file_allows(text: str, first_statement_line: int) -> FrozenSet[str]:
    """Check ids allowed file-wide by module-top allow-file pragmas.

    Only lines up to ``first_statement_line`` (the 1-based line of the
    first non-docstring statement; 0 when unknown scans nothing beyond
    line 1) are honoured, so a whole-file suppression can never hide in
    the middle of a module.
    """
    allowed = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if number > max(first_statement_line, 1):
            break
        if "sci:" not in line:
            continue
        for match in PRAGMA_FILE_RE.finditer(line):
            for entry in match.group(1).split(","):
                entry = entry.strip()
                if entry:
                    allowed.add(entry)
    return frozenset(allowed)


def suppresses(allowed: FrozenSet[str], check: str) -> bool:
    """Does an allow set cover ``check``? Exact id or family prefix."""
    for entry in allowed:
        if entry == check or check.startswith(entry + "."):
            return True
    return False
