"""Determinism lint: every run of the simulation must replay bit-for-bit.

The reproduction's claims (overlay routing, subscription dispatch, the
reliability layer) are all stated as "identical under replay". That only
holds if nothing reads the host's clock or global RNG, and nothing lets
hash-ordering decide the order messages hit the wire. Three checks:

``determinism.wall-clock``
    Calls into real time — ``time.time``/``monotonic``/``perf_counter``
    (and ``_ns`` variants), ``datetime.now``/``utcnow``/``today``. Simulated
    components must use ``scheduler.now``. No module is exempt, the run
    loop in :mod:`repro.net.sim` included; a deliberate host-clock read
    needs a line or file pragma.

``determinism.unseeded-random``
    Module-level ``random.*`` calls (the process-global, unseeded stream)
    and ``random.Random()`` constructed without a seed. Every RNG in the
    simulation must be a ``random.Random(seed)`` instance whose seed derives
    from configuration, so two runs draw identical streams.

``determinism.set-iteration`` / ``determinism.popitem``
    Ordering hazards on message paths: iterating a ``set`` (literal,
    ``set(...)``/``frozenset(...)`` call, set comprehension, or a local name
    only ever assigned from those) or calling ``dict.popitem()`` without an
    explicit ``last=`` inside a function that constructs or sends
    :class:`~repro.net.message.Message`s. Set iteration order depends on
    hashing; if it decides send order, replay and the lossy/lossless
    equivalence properties break. Membership tests and ``sorted(...)`` over
    sets are fine — only raw iteration is flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import SourceFile

CHECK_WALL_CLOCK = "determinism.wall-clock"
CHECK_UNSEEDED_RANDOM = "determinism.unseeded-random"
CHECK_SET_ITERATION = "determinism.set-iteration"
CHECK_POPITEM = "determinism.popitem"

#: functions of the ``time`` module that read the host clock
TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "clock_gettime", "clock_gettime_ns",
})

#: classmethods of ``datetime.datetime`` / ``datetime.date`` reading the clock
DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: module-level functions of ``random`` drawing from the global stream
RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits", "seed",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
})

#: attribute calls that put a function on a message path
_MESSAGE_CALL_ATTRS = frozenset({"send", "reply", "request"})


class _ImportMap:
    """Which local names refer to the ``time``/``random``/``datetime``
    modules or to the ``datetime.datetime``/``date`` classes or to
    individually imported clock/random functions."""

    def __init__(self, tree: ast.Module):
        self.module_alias: Dict[str, str] = {}   # local name -> module
        self.class_alias: Dict[str, str] = {}    # local name -> datetime class
        self.func_alias: Dict[str, str] = {}     # local name -> "time.perf_counter"...
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "random", "datetime"):
                        self.module_alias[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in TIME_FUNCS:
                            self.func_alias[alias.asname or alias.name] = \
                                f"time.{alias.name}"
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name in RANDOM_FUNCS:
                            self.func_alias[alias.asname or alias.name] = \
                                f"random.{alias.name}"
                        elif alias.name in ("Random", "SystemRandom"):
                            self.class_alias[alias.asname or alias.name] = \
                                f"random.{alias.name}"
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.class_alias[alias.asname or alias.name] = \
                                f"datetime.{alias.name}"


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _touches_messages(func: ast.AST) -> bool:
    """Does this function's subtree construct or send a Message?"""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MESSAGE_CALL_ATTRS:
            return True
        if isinstance(node.func, ast.Name) and node.func.id == "Message":
            return True
    return False


def _set_only_names(func: ast.AST) -> Set[str]:
    """Local names whose every assignment in the function is a set expression.

    Conservative single-pass dataflow: a name assigned anything non-set even
    once is dropped, so ``x = set(...); x = sorted(x)`` never flags."""
    set_names: Set[str] = set()
    other_names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            value = None  # |= on a set stays a set, but stay conservative
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if value is not None and _is_set_expr(value):
                set_names.add(target.id)
            else:
                other_names.add(target.id)
    return set_names - other_names


class DeterminismChecker:
    """AST checker for the four determinism invariants."""

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self._scan_calls(source, _ImportMap(source.tree)))
        findings.extend(self._ordering_hazards(source))
        return findings

    # -- clocks and RNGs ------------------------------------------------------

    def _scan_calls(self, source: SourceFile,
                    imports: _ImportMap) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve_target(node, imports)
            if target is None:
                continue
            module, func = target
            if module == "time" and func in TIME_FUNCS:
                findings.append(self._finding(
                    CHECK_WALL_CLOCK, source, node,
                    f"wall-clock read time.{func}(); simulated code must use "
                    f"scheduler.now"))
            elif module == "datetime" and func in DATETIME_FUNCS:
                findings.append(self._finding(
                    CHECK_WALL_CLOCK, source, node,
                    f"wall-clock read datetime {func}(); simulated code must "
                    f"use scheduler.now"))
            elif module == "random" and func in RANDOM_FUNCS:
                findings.append(self._finding(
                    CHECK_UNSEEDED_RANDOM, source, node,
                    f"module-level random.{func}() draws from the process-"
                    f"global stream; use a seeded random.Random instance"))
            elif module == "random" and func == "SystemRandom":
                findings.append(self._finding(
                    CHECK_UNSEEDED_RANDOM, source, node,
                    "random.SystemRandom is entropy-backed and can never "
                    "replay; use a seeded random.Random instance"))
            elif module == "random" and func == "Random" and not (
                    node.args or node.keywords):
                findings.append(self._finding(
                    CHECK_UNSEEDED_RANDOM, source, node,
                    "random.Random() without a seed falls back to OS "
                    "entropy; pass a seed derived from configuration"))
        return findings

    @staticmethod
    def _resolve_target(node: ast.Call,
                        imports: _ImportMap) -> Optional[tuple]:
        """(module, func) for clock/random call shapes, else None."""
        func = node.func
        if isinstance(func, ast.Name):
            dotted = imports.func_alias.get(func.id)
            if dotted:
                module, name = dotted.split(".", 1)
                return module, name
            klass = imports.class_alias.get(func.id)
            if klass:  # Random()/SystemRandom() called via from-import
                module, name = klass.split(".", 1)
                return module, name
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            module = imports.module_alias.get(base.id)
            if module:
                return module, func.attr
            klass = imports.class_alias.get(base.id)
            if klass:  # datetime.now() via `from datetime import datetime`
                return klass.split(".", 1)[0], func.attr
            return None
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            # datetime.datetime.now() via `import datetime`
            module = imports.module_alias.get(base.value.id)
            if module == "datetime" and base.attr in ("datetime", "date"):
                return "datetime", func.attr
            if module == "random" and base.attr in ("Random", "SystemRandom"):
                return "random", base.attr if base.attr == "SystemRandom" else None
        return None

    # -- ordering hazards -----------------------------------------------------

    def _ordering_hazards(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _touches_messages(node):
                continue
            set_names = _set_only_names(node)
            for inner in ast.walk(node):
                if isinstance(inner, (ast.For, ast.AsyncFor)):
                    iters = [inner.iter]
                elif isinstance(inner, (ast.ListComp, ast.SetComp,
                                        ast.GeneratorExp, ast.DictComp)):
                    iters = [gen.iter for gen in inner.generators]
                elif isinstance(inner, ast.Call) and \
                        isinstance(inner.func, ast.Attribute) and \
                        inner.func.attr == "popitem" and \
                        not any(kw.arg == "last" for kw in inner.keywords):
                    findings.append(self._finding(
                        CHECK_POPITEM, source, inner,
                        f"popitem() on a message path in {node.name}(): pop "
                        f"order must be explicit — use popitem(last=...) on "
                        f"an OrderedDict or pop a chosen key"))
                    continue
                else:
                    continue
                for it in iters:
                    hazard = _is_set_expr(it) or (
                        isinstance(it, ast.Name) and it.id in set_names)
                    if hazard:
                        what = it.id if isinstance(it, ast.Name) else "a set"
                        findings.append(self._finding(
                            CHECK_SET_ITERATION, source, it,
                            f"iteration over set {what!r} in {node.name}(), "
                            f"which sends/constructs Messages: hash order "
                            f"decides wire order — iterate a sorted or "
                            f"insertion-ordered sequence instead"))
        return findings

    @staticmethod
    def _finding(check: str, source: SourceFile, node: ast.AST,
                 message: str) -> Finding:
        return Finding(check=check, severity=Severity.ERROR,
                       path=source.path, line=getattr(node, "lineno", 0),
                       message=message)
