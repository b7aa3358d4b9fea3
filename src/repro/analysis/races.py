"""Lane-affinity race lint for the partitioned substrate.

The equivalence proofs in ``tests/parallel/`` and ``tests/shard/`` assume
that no lane mutates state owned by another lane outside the sanctioned
staging APIs (message delivery, the lane stats buffer, control-lane
barriers). This family makes that ownership discipline checkable: it builds
a per-module call graph, classifies each function by the execution context
it can run under, and flags writes that escape a lane.

**Context classification.** Lane roots are ``_handle_*`` methods and
``on_message`` (the dispatch surface the transport invokes on a host's
lane), plus every callable handed to ``schedule``/``schedule_at``/
``call_soon``/``schedule_periodic`` or passed as an ``on_reply``/
``on_timeout`` callback — timers and RPC continuations fire on the lane
that owns the scheduling process. Lane-ness propagates along intra-module
calls (``self.method()``, module functions, ``Class()`` construction) but
stops at *barrier-only* functions — rebalance/quiesce/merge/flush and the
run-loop entry points, which by construction execute while every lane is
parked at a horizon barrier.

**Checks.** All three are errors and all are scoped to non-substrate
modules (the substrate itself — :data:`RACES_BOUNDARY_MODULES` — owns the
lane machinery and orders its own accesses by design):

``races.module-state-write``
    A lane-reachable function writes module-level mutable state: rebinding
    a ``global``, mutating a module-level container in place, or drawing
    from a module-level ``itertools.count``. Two lanes running the same
    handler in one round see each other's writes in lane order, which
    changes with the partition count; per-instance or per-lane state is
    the fix.

``races.unstaged-mutation``
    A lane-reachable function mutates the shared ``Network``/``Scheduler``
    (or reaches into their privates) instead of going through staging:
    topology mutators like ``detach``/``fail_host``/``set_partitions``
    reorder events for every other lane mid-round and must run from the
    control lane or an ``on_quiesce`` barrier callback.

``races.cross-lane-send``
    An event is injected onto a lane that cannot be proven local: direct
    ``schedule_delivery`` calls or lane-internal access anywhere outside
    the substrate (subsuming the narrower ``determinism.partition-crossing``
    lint), scheduling on a *foreign* component's scheduler handle from lane
    context, or invoking another process's delivery entry points directly
    instead of sending through the transport.

``# sci: allow(races.<check>)`` on the flagged line (or a module-top
``# sci: allow-file(...)``) is the escape hatch, and suppressions stay
visible in the run summary. The dynamic half of this detector —
:mod:`repro.analysis.lanesan` — watches the same invariant at runtime.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import SourceFile

CHECK_MODULE_STATE = "races.module-state-write"
CHECK_UNSTAGED = "races.unstaged-mutation"
CHECK_CROSS_LANE = "races.cross-lane-send"

#: the substrate boundary plus its staging/bookkeeping helpers: these
#: modules implement lane ownership and order their own accesses, so every
#: races check is off inside them.
RACES_BOUNDARY_MODULES = frozenset({
    "repro.net.sim",
    "repro.net.transport",
    "repro.net.stats",
    "repro.net.eventlog",
})

#: modules whose timer callbacks run on the *control* lane by design (the
#: chaos injector and the open-loop workload driver schedule through the
#: control context), so scheduling a callback there does not make it
#: lane-executed.
CONTROL_CONTEXT_MODULES = frozenset({
    "repro.faults.injector",
    "repro.apps.workload",
})

#: lane internals of the substrate (kept in sync with the determinism
#: family's partition-crossing lint, which this check subsumes)
_PARTITION_INTERNALS = frozenset({
    "_lanes", "_rank_lane", "_origin_seq", "_round_horizon",
})

#: scheduling entry points whose callable arguments become lane roots
_SCHEDULE_FUNCS = frozenset({
    "schedule", "schedule_at", "call_soon", "schedule_periodic",
})

#: keyword arguments that carry lane-executed continuations on any call
_CALLBACK_KEYWORDS = frozenset({"on_reply", "on_timeout", "fn", "callback"})

#: in-place mutators of the builtin containers (list/set/dict/deque)
_CONTAINER_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "add", "update",
    "setdefault", "sort", "reverse", "rotate",
})

#: Network/Scheduler methods that mutate shared topology or registries —
#: calling these from lane context reorders events for other lanes
_SHARED_MUTATORS = frozenset({
    "attach", "detach", "add_host", "ensure_host", "register_host",
    "fail_host", "restore_host", "set_partitions", "heal_partitions",
    "reset", "on_quiesce",
})

#: receiver names that denote the shared Network/Scheduler singletons
_SHARED_RECEIVERS = frozenset({"network", "scheduler", "_network", "_scheduler"})

#: variable names that conventionally hold a *process* (another host's
#: delivery endpoint) — calling ``.deliver`` on one bypasses the transport
_PROCESS_NAMES = frozenset({
    "process", "proc", "recipient", "target", "peer", "subscriber", "dest",
})

#: barrier-only functions: run while lanes are parked, so lane-ness does
#: not propagate through them
_BARRIER_NAME_PARTS = ("rebalance", "quiesce", "merge", "flush")
_BARRIER_NAMES = frozenset({
    "add_shard", "remove_shard", "close", "run", "run_for",
    "run_until", "run_until_idle",
})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: AST call values that produce a mutable container at module level
_MUTABLE_CALLS = frozenset({
    "list", "set", "dict", "deque", "defaultdict", "OrderedDict",
    "Counter", "count",
})


def _is_barrier_name(name: str) -> bool:
    lowered = name.lower()
    if lowered.lstrip("_") in _BARRIER_NAMES:
        return True
    return any(part in lowered for part in _BARRIER_NAME_PARTS)


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``self.network.scheduler`` -> ("self", "network", "scheduler")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_shared_receiver(chain: Optional[Tuple[str, ...]]) -> bool:
    """Does an attribute chain name the shared Network/Scheduler?

    Matches ``network.x`` / ``scheduler.x`` / ``self.network.x`` /
    ``self._scheduler.x`` — the receiver is the component *holding* the
    attribute, i.e. the chain minus its final segment.
    """
    if chain is None or len(chain) < 2:
        return False
    receiver = chain[:-1]
    if receiver[-1] in _SHARED_RECEIVERS:
        return True
    return False


def _mutable_module_names(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable containers or counters."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                     ast.DictComp, ast.SetComp))
        if not mutable and isinstance(value, ast.Call):
            callee = value.func
            callee_name = None
            if isinstance(callee, ast.Name):
                callee_name = callee.id
            elif isinstance(callee, ast.Attribute):
                callee_name = callee.attr
            mutable = callee_name in _MUTABLE_CALLS
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class _ModuleGraph:
    """Call graph and context classification for one module.

    Nodes are top-level functions (keyed by name) and methods (keyed
    ``Class.method``). Edges are the intra-module calls the AST can see:
    ``self.method()`` / ``cls.method()`` (matched by method name across the
    module's classes — an over-approximation that errs toward flagging),
    module-function calls, ``Class()`` construction reaching ``__init__``,
    and ``super().method()``.
    """

    def __init__(self, tree: ast.Module):
        self.functions: Dict[str, _FunctionNode] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.module_functions: Dict[str, str] = {}
        self.classes: Set[str] = set()
        self._index(tree)
        self.edges: Dict[str, Set[str]] = {
            key: self._edges_from(node) for key, node in self.functions.items()}

    def _index(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
                self.module_functions[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                self.classes.add(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        key = f"{node.name}.{item.name}"
                        self.functions[key] = item
                        self.methods_by_name.setdefault(item.name,
                                                        []).append(key)

    def _edges_from(self, node: _FunctionNode) -> Set[str]:
        targets: Set[str] = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                if func.id in self.module_functions:
                    targets.add(func.id)
                elif func.id in self.classes:
                    init = f"{func.id}.__init__"
                    if init in self.functions:
                        targets.add(init)
            elif isinstance(func, ast.Attribute):
                value = func.value
                is_self = isinstance(value, ast.Name) and value.id == "self"
                is_super = (isinstance(value, ast.Call)
                            and isinstance(value.func, ast.Name)
                            and value.func.id == "super")
                if is_self or is_super:
                    targets.update(self.methods_by_name.get(func.attr, ()))
        return targets

    # -- lane roots -----------------------------------------------------------

    def _callback_targets(self, node: ast.expr) -> Iterable[str]:
        """Function-graph keys a callback expression can invoke."""
        if isinstance(node, ast.Name):
            if node.id in self.module_functions:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield from self.methods_by_name.get(node.attr, ())
        elif isinstance(node, ast.Lambda):
            for call in ast.walk(node.body):
                if isinstance(call, ast.Call):
                    yield from self._callback_targets(call.func)

    def lane_roots(self, *, timers_are_lane: bool = True) -> Set[str]:
        roots: Set[str] = set()
        for key, node in self.functions.items():
            short = key.rsplit(".", 1)[-1]
            if short.startswith("_handle_") or short == "on_message":
                roots.add(key)
        if not timers_are_lane:
            return roots
        for node in self.functions.values():
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                callee = func.attr if isinstance(func, ast.Attribute) \
                    else func.id if isinstance(func, ast.Name) else None
                if callee in _SCHEDULE_FUNCS:
                    for arg in call.args:
                        roots.update(self._callback_targets(arg))
                for keyword in call.keywords:
                    if keyword.arg in _CALLBACK_KEYWORDS:
                        roots.update(self._callback_targets(keyword.value))
        return roots

    def lane_reachable(self, *, timers_are_lane: bool = True) -> Set[str]:
        """BFS from the lane roots, stopping at barrier-only functions."""
        reached: Set[str] = set()
        frontier = list(self.lane_roots(timers_are_lane=timers_are_lane))
        while frontier:
            key = frontier.pop()
            if key in reached:
                continue
            reached.add(key)
            for callee in self.edges.get(key, ()):
                short = callee.rsplit(".", 1)[-1]
                if _is_barrier_name(short):
                    continue
                if callee not in reached:
                    frontier.append(callee)
        return reached


class RaceChecker:
    """Per-file lane-ownership lint (see module docstring)."""

    def check(self, source: SourceFile) -> List[Finding]:
        if source.module in RACES_BOUNDARY_MODULES:
            return []
        graph = _ModuleGraph(source.tree)
        timers_are_lane = source.module not in CONTROL_CONTEXT_MODULES
        lane = graph.lane_reachable(timers_are_lane=timers_are_lane)
        mutables = _mutable_module_names(source.tree)

        findings: List[Finding] = []
        findings.extend(self._module_wide(source, graph))
        for key in sorted(lane):
            node = graph.functions[key]
            findings.extend(
                self._lane_function(source, key, node, mutables))
        return findings

    # -- context-insensitive substrate boundary -------------------------------

    def _module_wide(self, source: SourceFile,
                     graph: _ModuleGraph) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "schedule_delivery":
                findings.append(self._finding(
                    CHECK_CROSS_LANE, source, node,
                    "direct schedule_delivery bypasses the horizon "
                    "exchange; cross-partition events must go through "
                    "Network.send"))
            elif isinstance(node, ast.Attribute) \
                    and node.attr in _PARTITION_INTERNALS:
                findings.append(self._finding(
                    CHECK_CROSS_LANE, source, node,
                    f"access to lane internal {node.attr!r} outside the "
                    f"substrate boundary"))
        return findings

    # -- per-function checks --------------------------------------------------

    def _lane_function(self, source: SourceFile, key: str,
                       node: _FunctionNode,
                       mutables: Set[str]) -> List[Finding]:
        findings: List[Finding] = []
        globals_declared: Set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                globals_declared.update(stmt.names)

        for child in ast.walk(node):
            findings.extend(self._check_module_state(
                source, key, child, mutables, globals_declared))
            findings.extend(self._check_unstaged(source, key, child))
            findings.extend(self._check_cross_lane(source, key, child))
        return findings

    def _check_module_state(self, source: SourceFile, key: str,
                            child: ast.AST, mutables: Set[str],
                            globals_declared: Set[str]) -> List[Finding]:
        findings: List[Finding] = []
        if isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = child.targets if isinstance(child, ast.Assign) \
                else [child.target]
            for target in targets:
                name = None
                via = None
                if isinstance(target, ast.Name) \
                        and target.id in globals_declared:
                    name, via = target.id, "rebinds global"
                elif isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in mutables:
                    name, via = target.value.id, "writes into module-level"
                if name is not None:
                    findings.append(self._finding(
                        CHECK_MODULE_STATE, source, child,
                        f"lane-reachable {key} {via} {name!r}; module "
                        f"state is shared across lanes"))
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in mutables:
                    findings.append(self._finding(
                        CHECK_MODULE_STATE, source, child,
                        f"lane-reachable {key} deletes from module-level "
                        f"{target.value.id!r}"))
        elif isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in mutables \
                    and func.attr in _CONTAINER_MUTATORS:
                findings.append(self._finding(
                    CHECK_MODULE_STATE, source, child,
                    f"lane-reachable {key} mutates module-level "
                    f"{func.value.id!r} via .{func.attr}()"))
            elif isinstance(func, ast.Name) and func.id == "next" \
                    and len(child.args) == 1 \
                    and isinstance(child.args[0], ast.Name) \
                    and child.args[0].id in mutables:
                findings.append(self._finding(
                    CHECK_MODULE_STATE, source, child,
                    f"lane-reachable {key} draws from module-level counter "
                    f"{child.args[0].id!r}; lanes race on the shared "
                    f"iterator"))
        return findings

    def _check_unstaged(self, source: SourceFile, key: str,
                        child: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        if isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = child.targets if isinstance(child, ast.Assign) \
                else [child.target]
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and _is_shared_receiver(_attr_chain(target)):
                    findings.append(self._finding(
                        CHECK_UNSTAGED, source, child,
                        f"lane-reachable {key} assigns "
                        f"{'.'.join(_attr_chain(target) or ())} on the "
                        f"shared component; stage through the control lane "
                        f"or an on_quiesce callback"))
        elif isinstance(child, ast.Call) \
                and isinstance(child.func, ast.Attribute):
            func = child.func
            chain = _attr_chain(func)
            if func.attr in _SHARED_MUTATORS \
                    and _is_shared_receiver(chain):
                findings.append(self._finding(
                    CHECK_UNSTAGED, source, child,
                    f"lane-reachable {key} calls .{func.attr}() on the "
                    f"shared {chain[-2] if chain else 'component'}; "
                    f"topology mutation must run at a barrier"))
        elif isinstance(child, ast.Attribute) \
                and child.attr.startswith("_") \
                and not child.attr.startswith("__") \
                and _is_shared_receiver(_attr_chain(child)):
            findings.append(self._finding(
                CHECK_UNSTAGED, source, child,
                f"lane-reachable {key} reaches into private "
                f"{child.attr!r} of the shared component"))
        return findings

    def _check_cross_lane(self, source: SourceFile, key: str,
                          child: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        if not (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)):
            return findings
        func = child.func
        chain = _attr_chain(func)
        if func.attr in ("schedule", "schedule_at", "call_soon") \
                and chain is not None and len(chain) >= 3 \
                and chain[-2] == "scheduler" and chain[0] != "self":
            findings.append(self._finding(
                CHECK_CROSS_LANE, source, child,
                f"lane-reachable {key} schedules on "
                f"{'.'.join(chain[:-1])} — a foreign component's lane; "
                f"send a message instead"))
        elif func.attr == "on_message" \
                and chain is not None and chain[0] != "self" \
                and len(chain) == 2:
            findings.append(self._finding(
                CHECK_CROSS_LANE, source, child,
                f"lane-reachable {key} invokes {'.'.join(chain)}() "
                f"directly; deliveries must go through the transport"))
        elif func.attr == "deliver" \
                and isinstance(func.value, ast.Name) \
                and func.value.id in _PROCESS_NAMES:
            findings.append(self._finding(
                CHECK_CROSS_LANE, source, child,
                f"lane-reachable {key} delivers to {func.value.id!r} "
                f"directly; deliveries must go through the transport"))
        return findings

    def _finding(self, check: str, source: SourceFile,
                 node: ast.AST, message: str) -> Finding:
        return Finding(check=check, severity=Severity.ERROR,
                       path=source.path,
                       line=getattr(node, "lineno", 1),
                       message=message)


def check_sources(sources: Sequence[SourceFile]) -> List[Finding]:
    """Run the race checker over every source (runner entry point)."""
    checker = RaceChecker()
    findings: List[Finding] = []
    for source in sources:
        findings.extend(checker.check(source))
    return findings
