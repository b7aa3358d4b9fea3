"""Parse-once guarantee: one ``ast.parse`` per file per process, shared by
all three checker families and across runs, invalidated by modification."""

import pathlib

from repro.analysis.runner import FAMILIES, run_analysis
from repro.analysis.source import (
    PARSE_STATS,
    SourceFile,
    clear_parse_cache,
    load_sources,
)


def _make_tree(tmp_path, files=3):
    for i in range(files):
        (tmp_path / f"m{i}.py").write_text(
            f"VALUE_{i} = {i}\n", encoding="utf-8")
    return tmp_path


def test_one_parse_per_file_across_all_families(tmp_path):
    root = _make_tree(tmp_path)
    clear_parse_cache()
    before = PARSE_STATS["parsed"]
    report = run_analysis([str(root)], check_orphans=False)
    assert len(report.sources) == 3
    assert len(FAMILIES) == 3
    assert PARSE_STATS["parsed"] - before == 3, (
        "every family must share the same parsed SourceFile")


def test_second_run_is_fully_cached(tmp_path):
    root = _make_tree(tmp_path)
    clear_parse_cache()
    run_analysis([str(root)], check_orphans=False)
    parsed = PARSE_STATS["parsed"]
    hits = PARSE_STATS["cache_hits"]
    run_analysis([str(root)], check_orphans=False)
    assert PARSE_STATS["parsed"] == parsed, "second run re-parsed"
    assert PARSE_STATS["cache_hits"] - hits == 3


def test_modification_invalidates_one_entry(tmp_path):
    root = _make_tree(tmp_path)
    clear_parse_cache()
    run_analysis([str(root)], check_orphans=False)
    parsed = PARSE_STATS["parsed"]
    # size change guarantees a new (mtime_ns, size) signature even on
    # filesystems with coarse timestamps
    (root / "m1.py").write_text("VALUE_1 = 11  # changed\n", encoding="utf-8")
    run_analysis([str(root)], check_orphans=False)
    assert PARSE_STATS["parsed"] - parsed == 1


def test_cached_sources_are_reused_objects(tmp_path):
    root = _make_tree(tmp_path)
    clear_parse_cache()
    first, errors = load_sources([str(root)])
    assert errors == []
    second, _ = load_sources([str(root)])
    assert [id(s) for s in first] == [id(s) for s in second]
    assert all(isinstance(s, SourceFile) for s in second)
