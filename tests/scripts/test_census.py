"""The census of ``scripts/census.py`` on a fixture package: a function a
reader calls is labelled with that reader, one only the tests call is
tests-only, and ``--check``'s comparison fails on an unlisted tests-only
function and on a stale or badly reasoned list entry."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "census.py"

FIXTURE = textwrap.dedent('''\
    def reached():
        return 1


    def unreached():
        return 2


    class Box:
        @property
        def size(self):
            return 3

        def declared(self):
            """Subclasses say."""
            raise NotImplementedError


    def outer():
        def inner():
            return 4
        return inner()
    ''')


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave scripts/ and the fixture as they are
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


@pytest.fixture(scope="module")
def census():
    return _load("census_under_test", SCRIPT)


@pytest.fixture
def package(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(FIXTURE)
    return tmp_path, _load("census_fixture_mod", tmp_path / "pkg" / "mod.py")


@pytest.fixture
def classes(census, package):
    root, module = package
    functions = census.definitions(root)
    _, example = census.trace_reached(module.reached, root)
    _, tests = census.trace_reached(
        lambda: (module.unreached(), module.outer()), root)
    return functions, census.classify(
        functions, {"examples": example, "tests": tests})


def test_definitions_are_keyed_by_module_and_qualname(census, package):
    functions = census.definitions(package[0])
    assert sorted(functions) == [
        "pkg.mod:Box.size", "pkg.mod:outer", "pkg.mod:outer.<locals>.inner",
        "pkg.mod:reached", "pkg.mod:unreached"]
    # a decorated function starts at its decorator; a nested one's lines
    # are its own, not its parent's; an interface declaration is skipped
    assert functions["pkg.mod:Box.size"].first == 10
    assert (functions["pkg.mod:outer"].lines,
            functions["pkg.mod:outer.<locals>.inner"].lines) == (2, 2)


def test_the_classifier_labels_reached_and_tests_only(census, classes):
    _functions, readers = classes
    assert readers["pkg.mod:reached"] == {"examples"}
    assert readers["pkg.mod:unreached"] == {"tests"}
    assert readers["pkg.mod:outer.<locals>.inner"] == {"tests"}
    assert readers["pkg.mod:Box.size"] == frozenset()
    assert census.tests_only(readers) == [
        "pkg.mod:Box.size", "pkg.mod:outer", "pkg.mod:outer.<locals>.inner",
        "pkg.mod:unreached"]


def test_the_tracer_puts_back_the_one_before_it(census):
    def outer_tracer(frame, event, arg):
        return None

    previous = sys.gettrace()  # the census's own, when it runs this suite
    sys.settrace(outer_tracer)
    try:
        result, _ = census.trace_reached(lambda: 7)
        assert sys.gettrace() is outer_tracer
    finally:
        sys.settrace(previous)
    assert result == 7


def test_a_run_that_drops_the_tracer_is_refused(census):
    previous = sys.gettrace()
    try:
        with pytest.raises(RuntimeError):
            census.trace_reached(lambda: sys.settrace(None))
    finally:
        sys.settrace(previous)


EXACT = {"pkg.mod:Box.size": "debug", "pkg.mod:outer": "reference",
         "pkg.mod:outer.<locals>.inner": "reference",
         "pkg.mod:unreached": "pending:14"}


def test_an_exact_list_passes(census, classes):
    assert census.check(classes[1], EXACT) == []


def test_an_unlisted_tests_only_function_fails(census, classes):
    listed = {key: reason for key, reason in EXACT.items()
              if key != "pkg.mod:unreached"}
    assert census.check(classes[1], listed) == [
        "unlisted: pkg.mod:unreached is reached by the tests only"]


def test_an_unlisted_function_no_reader_reaches_fails(census, classes):
    listed = {key: reason for key, reason in EXACT.items()
              if key != "pkg.mod:Box.size"}
    assert census.check(classes[1], listed) == [
        "unlisted: pkg.mod:Box.size is reached by no reader"]


@pytest.mark.parametrize("entry, problem", [
    (("pkg.mod:reached", "debug"),
     "stale: pkg.mod:reached is listed but reached by examples"),
    (("pkg.mod:gone", "debug"), "stale: pkg.mod:gone is listed but gone"),
], ids=["reached", "gone"])
def test_a_stale_entry_fails(census, classes, entry, problem):
    assert census.check(classes[1], dict(EXACT, **dict([entry]))) == [problem]


@pytest.mark.parametrize("reason", ["because", "pending", "debug:later"])
def test_a_reason_outside_the_set_fails(census, classes, reason):
    problems = census.check(classes[1], dict(EXACT, **{"pkg.mod:unreached": reason}))
    assert len(problems) == 1 and problems[0].startswith(
        "reason: pkg.mod:unreached")


def test_the_list_file_is_read_line_by_line(census, tmp_path):
    listed = tmp_path / "census.txt"
    listed.write_text("# a comment\n\npkg.mod:unreached  pending:14  # why\n")
    assert census.load_list(listed) == {"pkg.mod:unreached": "pending:14"}
    listed.write_text("pkg.mod:unreached\n")
    with pytest.raises(SystemExit):
        census.load_list(listed)


def test_the_table_sums_lines_by_reader(census, classes):
    functions, readers = classes
    rows = census.table(functions, readers)
    total = rows[-2].split()
    # lines, e2e, examples, claims, smoke, tests only, unreached
    assert total == ["total", "11", "0", "2", "0", "0", "6", "3"]
    assert rows[-1].startswith("functions: 5; reached by no reader but the "
                               "tests: 4")
