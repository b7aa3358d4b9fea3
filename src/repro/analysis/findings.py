"""Finding model shared by every checker in :mod:`repro.analysis`.

A finding is one violation of a simulation invariant, anchored to a
``path:line`` location so editors and CI logs can jump straight to it.
Checks are named ``<family>.<check>`` (``determinism.wall-clock``,
``verbs.dead-handler``, ``catalog.undeclared``...) and the same ids are what
the ``# sci: allow(<check>)`` pragma suppresses — either the exact id or a
whole family (``# sci: allow(determinism)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List


class Severity(enum.Enum):
    """How bad a finding is; every current check is an error (CI gates on
    any unsuppressed finding), warnings exist for advisory future checks."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one source location."""

    check: str
    severity: Severity
    path: str
    line: int
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}: "
                f"{self.severity.value}[{self.check}] {self.message}")

    def to_dict(self, suppressed: bool = False) -> dict:
        """JSON shape consumed by downstream tooling — stable schema:
        check, severity, path, line, message, suppressed."""
        return {
            "check": self.check,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": suppressed,
        }


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable presentation order: by file, then line, then check id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.check, f.message))
