"""Orchestrates the checker families over a loaded source tree.

The runner owns the two concerns the checkers deliberately don't:

* **pragma suppression** — checkers report everything; the runner splits
  findings into active and suppressed using each file's ``# sci: allow``
  lines, so suppressions are visible in the report instead of silently
  swallowed inside a checker.
* **whole-tree checks** — the verb and catalog families need the complete
  model (a send in ``entities`` is handled in ``events``); the determinism
  family is per-file. The runner feeds each the shape it wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.catalog_lint import CatalogChecker
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.source import SourceFile, load_sources
from repro.analysis.verbs import VerbChecker, VerbModel, build_model

CHECK_PARSE = "analysis.parse-error"

FAMILIES = ("determinism", "verbs", "catalog")


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    sources: List[SourceFile] = field(default_factory=list)
    active: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    verb_model: Optional[VerbModel] = None

    @property
    def ok(self) -> bool:
        return not self.active

    def counts_by_check(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.active:
            counts[finding.check] = counts.get(finding.check, 0) + 1
        return counts


def run_analysis(paths: Sequence[str],
                 select: Optional[Iterable[str]] = None,
                 check_orphans: bool = True) -> AnalysisReport:
    """Analyse every python file under ``paths``.

    ``select`` restricts to the named families (default: all three);
    ``check_orphans`` should be False for partial scans, where a metric
    having no call site in view proves nothing.
    """
    families = tuple(select) if select else FAMILIES
    sources, errors = load_sources(paths)
    report = AnalysisReport(sources=sources)

    findings: List[Finding] = [
        Finding(check=CHECK_PARSE, severity=Severity.ERROR,
                path=path, line=line, message=message)
        for path, line, message in errors]

    if "determinism" in families:
        checker = DeterminismChecker()
        for source in sources:
            findings.extend(checker.check(source))
    if "verbs" in families:
        report.verb_model = build_model(sources)
        findings.extend(VerbChecker().check(sources,
                                            model=report.verb_model))
    if "catalog" in families:
        findings.extend(
            CatalogChecker(check_orphans=check_orphans).check(sources))

    by_path = {source.path: source for source in sources}
    for finding in sort_findings(findings):
        source = by_path.get(finding.path)
        if source is not None and source.allowed_at(finding.line,
                                                    finding.check):
            report.suppressed.append(finding)
        else:
            report.active.append(finding)
    return report
