"""Metrics-catalog lint: every emitted series is declared, once, correctly.

The catalog (:mod:`repro.obs.catalog`) is the single declaration of every
metric: :class:`repro.obs.metrics.MetricsRegistry` builds a metric from its
entry and refuses an undeclared name or another kind's method at run time.
This checker finds the same mistakes before anything runs, by
cross-referencing the catalog against every
``metrics.counter/gauge/histogram(...)`` call site, and also finds what no
run can: declarations nothing registers and names off the convention.

Checks:

``catalog.undeclared``   call site registers a name missing from the catalog
``catalog.kind-mismatch``  call method differs from the declared kind
``catalog.naming``       name breaks ``<layer>.<subsystem>.<event>`` — three
                         or more dot segments of ``lower_snake`` words
``catalog.orphaned``     declared but never registered anywhere in the scan
                         (skipped for partial scans via ``check_orphans``)
``catalog.duplicate``    the catalog declares the same name twice

Call sites are recognised structurally: a ``.counter/.gauge/.histogram``
attribute call whose receiver's last name contains ``metric`` or is
``registry``, with the metric name as the first argument — a string
literal or a module-level string constant (the :mod:`repro.net.stats`
pattern). Names built from arbitrary expressions are invisible to the
checker and should not be introduced. A call site names the metric and
nothing else — the registry builds it from its catalog entry, labels
included — so there is no label set at a call site to cross-check.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import SourceFile

CHECK_UNDECLARED = "catalog.undeclared"
CHECK_KIND_MISMATCH = "catalog.kind-mismatch"
CHECK_NAMING = "catalog.naming"
CHECK_ORPHANED = "catalog.orphaned"
CHECK_DUPLICATE = "catalog.duplicate"

METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})

#: <layer>.<subsystem>.<event>: at least three lower_snake dot segments
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$")

#: the default module holding the catalog declarations
CATALOG_MODULE = "repro.obs.catalog"


@dataclass(frozen=True)
class Declaration:
    name: str
    kind: str
    path: str
    line: int


@dataclass(frozen=True)
class CallSite:
    name: str
    kind: str
    path: str
    line: int


def extract_declarations(
        catalog: SourceFile) -> Tuple[Dict[str, Declaration], List[Finding]]:
    """AST-scan ``_declare(...)`` calls; duplicates become findings."""
    declarations: Dict[str, Declaration] = {}
    findings: List[Finding] = []
    for node in ast.walk(catalog.tree):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Name) and
                node.func.id == "_declare"):
            continue
        if len(node.args) < 2 or not all(
                isinstance(a, ast.Constant) and isinstance(a.value, str)
                for a in node.args[:2]):
            continue
        name = node.args[0].value
        kind = node.args[1].value
        if name in declarations:
            findings.append(Finding(
                check=CHECK_DUPLICATE, severity=Severity.ERROR,
                path=catalog.path, line=node.lineno,
                message=f'metric "{name}" already declared at '
                        f'{catalog.path}:{declarations[name].line}'))
            continue
        declarations[name] = Declaration(
            name=name, kind=kind, path=catalog.path, line=node.lineno)
    return declarations, findings


def _module_constants(source: SourceFile) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants."""
    constants: Dict[str, str] = {}
    for node in source.tree.body:
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            constants[node.target.id] = node.value.value
    return constants


def _receiver_is_metrics(func: ast.Attribute) -> bool:
    base = func.value
    if isinstance(base, ast.Name):
        last = base.id
    elif isinstance(base, ast.Attribute):
        last = base.attr
    else:
        return False
    last = last.lower().lstrip("_")
    return "metric" in last or last == "registry"


def extract_call_sites(source: SourceFile) -> List[CallSite]:
    constants = _module_constants(source)
    sites: List[CallSite] = []
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Attribute) and
                node.func.attr in METRIC_METHODS and
                _receiver_is_metrics(node.func)):
            continue
        if not node.args:
            continue
        head = node.args[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            name = head.value
        elif isinstance(head, ast.Name) and head.id in constants:
            name = constants[head.id]
        else:
            continue  # dynamically built name: invisible, see module docstring
        sites.append(CallSite(name=name, kind=node.func.attr,
                              path=source.path, line=node.lineno))
    return sites


class CatalogChecker:
    """Cross-checks call sites against the declared catalog.

    ``catalog_module`` names the module whose ``_declare`` calls are the
    catalog (tests point it at fixture catalogs); ``check_orphans`` is
    disabled for partial scans where absence proves nothing.
    """

    def __init__(self, catalog_module: str = CATALOG_MODULE,
                 check_orphans: bool = True):
        self.catalog_module = catalog_module
        self.check_orphans = check_orphans

    def check(self, sources: List[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        catalog = next((s for s in sources
                        if s.module == self.catalog_module), None)
        declarations: Dict[str, Declaration] = {}
        if catalog is not None:
            declarations, findings = extract_declarations(catalog)
            for decl in declarations.values():
                if not NAME_RE.match(decl.name):
                    findings.append(Finding(
                        check=CHECK_NAMING, severity=Severity.ERROR,
                        path=decl.path, line=decl.line,
                        message=f'metric "{decl.name}" breaks the '
                                f'<layer>.<subsystem>.<event> convention '
                                f'(need >= 3 lower_snake dot segments)'))
        seen: set = set()
        for source in sources:
            if source.module == self.catalog_module:
                continue
            for site in extract_call_sites(source):
                seen.add(site.name)
                findings.extend(self._check_site(site, declarations, catalog))
        if self.check_orphans and catalog is not None:
            for decl in declarations.values():
                if decl.name not in seen:
                    findings.append(Finding(
                        check=CHECK_ORPHANED, severity=Severity.ERROR,
                        path=decl.path, line=decl.line,
                        message=f'metric "{decl.name}" is declared but no '
                                f'call site registers it: delete the '
                                f'declaration or wire up the emitter'))
        return findings

    def _check_site(self, site: CallSite,
                    declarations: Dict[str, Declaration],
                    catalog: Optional[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        if not NAME_RE.match(site.name):
            findings.append(Finding(
                check=CHECK_NAMING, severity=Severity.ERROR,
                path=site.path, line=site.line,
                message=f'metric "{site.name}" breaks the '
                        f'<layer>.<subsystem>.<event> convention '
                        f'(need >= 3 lower_snake dot segments)'))
        if catalog is None:
            return findings  # no catalog in scan: only naming is checkable
        decl = declarations.get(site.name)
        if decl is None:
            findings.append(Finding(
                check=CHECK_UNDECLARED, severity=Severity.ERROR,
                path=site.path, line=site.line,
                message=f'metric "{site.name}" is not declared in '
                        f'{self.catalog_module}'))
            return findings
        if site.kind != decl.kind:
            findings.append(Finding(
                check=CHECK_KIND_MISMATCH, severity=Severity.ERROR,
                path=site.path, line=site.line,
                message=f'metric "{site.name}" registered as {site.kind} '
                        f'but declared as {decl.kind} at '
                        f'{decl.path}:{decl.line}'))
        return findings
