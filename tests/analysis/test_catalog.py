"""The catalog family keeps the metric namespace declared and consistent."""

import pathlib

from repro.analysis.catalog_lint import CatalogChecker
from repro.analysis.findings import sort_findings
from repro.analysis.source import load_sources

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CATALOG_MODULE = "tests.analysis.fixtures.cat_catalog"


def _sources():
    sources, errors = load_sources([
        str(FIXTURES / "cat_catalog.py"),
        str(FIXTURES / "cat_violations.py"),
    ])
    assert errors == []
    return sources


def _check(check_orphans=True):
    checker = CatalogChecker(catalog_module=CATALOG_MODULE,
                             check_orphans=check_orphans)
    return sort_findings(checker.check(_sources()))


def test_fixture_findings_exact():
    findings = _check()
    assert [(f.check, pathlib.PurePosixPath(f.path).name, f.line)
            for f in findings] == [
        ("catalog.orphaned", "cat_catalog.py", 15),       # app.orphan.series
        ("catalog.naming", "cat_catalog.py", 16),         # badname.short
        ("catalog.orphaned", "cat_catalog.py", 16),
        ("catalog.orphaned", "cat_catalog.py", 17),       # app.dup.series
        ("catalog.duplicate", "cat_catalog.py", 18),
        ("catalog.undeclared", "cat_violations.py", 11),  # app.undeclared.*
        ("catalog.kind-mismatch", "cat_violations.py", 12),
        ("catalog.naming", "cat_violations.py", 13),      # bad.two
        ("catalog.undeclared", "cat_violations.py", 13),
    ]


def test_partial_scans_skip_orphans():
    checks = {f.check for f in _check(check_orphans=False)}
    assert "catalog.orphaned" not in checks
    assert "catalog.undeclared" in checks


def test_module_constants_resolve_and_clean_sites_pass():
    findings = _check()
    # the GOOD_NAME constant call site (line 10) produced no finding
    assert not any(f.line == 10 and "cat_violations" in f.path
                   for f in findings)
    # non-registry receivers are not metric call sites (line 14)
    assert not any("not.a.metric.call" in f.message for f in findings)
