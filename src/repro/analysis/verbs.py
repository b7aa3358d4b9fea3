"""Protocol-verb cross-checker: the wire protocol must stay closed.

Every verb a component sends must have a receiver that understands it, and
every handler must correspond to a verb somebody can actually send — a
handler nobody reaches is dead code, and a send nobody handles is a silent
black hole (the transport delivers it, ``on_message`` ignores it, and the
ack/retry layer burns retries until the request times out).

The checker builds a whole-tree model from three extraction passes:

*sends* — string-literal verbs in ``send(peer, "verb", ...)``,
``request(peer, "verb", ...)`` and ``Message(kind="verb")``. Verbs sent only
via ``reply(original, "verb", ...)`` are *reply verbs*: they are consumed by
RPC correlation on ``reply_to`` (:mod:`repro.net.rpc`), so they need no
kind-handler.

*handlers* — ``message.kind == "verb"`` / ``message.kind in (...)``
comparisons, string keys of handler dicts (an assignment to a name
containing ``handler``), and ``_handle_<verb>`` methods of classes that
dispatch dynamically via ``getattr(self, f"_handle_{{...}}")`` — including
classes that *inherit* such a dispatcher (resolved by base-class name
across the whole tree, transitively: a ``_handle_*`` method of a subclass
such as ``ReferenceScanMediator(EventMediator)`` counts because
``EventMediator.on_message`` dispatches). Plain
``_handle_*`` helpers in other classes are ordinary methods, not handlers.

*announcements* — a verb sent to ``BROADCAST`` reaches only the processes
whose class names it in ``listens_for = ("verb", ...)``, so for such a verb
those declarations, not ``kind`` comparisons, are its handlers.

*declared endpoints* — a module may declare verbs it handles as external
API by naming them in double backticks in its module docstring (e.g. the
mediator declares ``subscribe``; tests and applications send it even though
no library component does). Declared verbs are exempt from the dead-handler
check and listed as "external api" in the generated ``PROTOCOL.md``.

*answers* — a literal ``reply(...)`` inside a ``_handle_<verb>`` function
or inside the body of an ``if message.kind == "<verb>":`` branch answers
``<verb>``. A reply only has a reader if the verb it answers is sent with
``request(...)``, whose correlation waits on ``reply_to``.

Checks: ``verbs.unhandled-send``, ``verbs.dead-handler``,
``verbs.orphan-reply`` (a reply answering a verb that the tree only ever
``send``s, never ``request``s: nobody waits for it, so it is delivered to a
debug log or to a process that already left) and (CLI-level)
``verbs.protocol-drift`` when the committed ``PROTOCOL.md`` no longer
matches the tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import SourceFile

CHECK_UNHANDLED_SEND = "verbs.unhandled-send"
CHECK_DEAD_HANDLER = "verbs.dead-handler"
CHECK_ORPHAN_REPLY = "verbs.orphan-reply"
CHECK_PROTOCOL_DRIFT = "verbs.protocol-drift"

#: names a message variable is allowed to have in ``<name>.kind == ...``
_MESSAGE_NAMES = frozenset({"message", "msg"})

#: verbs are kebab-case words; filters docstring backtick tokens
_VERB_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")

_BACKTICK_RE = re.compile(r"``([^`]+)``")


@dataclass(frozen=True)
class Site:
    """One place a verb is sent, handled or declared."""

    path: str
    line: int
    module: str


@dataclass
class VerbModel:
    """Everything the tree says about the wire protocol."""

    sends: Dict[str, List[Site]] = field(default_factory=dict)
    replies: Dict[str, List[Site]] = field(default_factory=dict)
    handlers: Dict[str, List[Site]] = field(default_factory=dict)
    declared: Dict[str, List[Site]] = field(default_factory=dict)
    #: verbs sent to ``BROADCAST``; verbs some class ``listens_for``
    announces: Dict[str, List[Site]] = field(default_factory=dict)
    listeners: Dict[str, List[Site]] = field(default_factory=dict)
    #: the subset of ``sends`` made through ``request(...)``
    requested: Dict[str, List[Site]] = field(default_factory=dict)
    #: (verb answered, reply verb, reply site) for every handler reply
    answers: List[Tuple[str, str, Site]] = field(default_factory=list)

    def handled_by(self, verb: str) -> Dict[str, List[Site]]:
        return self.listeners if verb in self.announces else self.handlers

    def verbs(self) -> List[str]:
        """Verbs that exist on the wire: sent, replied or handled somewhere.

        A docstring declaration alone creates no verb — module docstrings
        backtick plenty of ordinary words; declarations only *classify*
        verbs that some component actually handles."""
        names: Set[str] = set()
        for table in (self.sends, self.replies, self.handlers):
            names.update(table)
        return sorted(names)

    def role(self, verb: str) -> str:
        sent = verb in self.sends
        replied = verb in self.replies
        if sent and replied:
            return "request+reply"
        if replied:
            return "reply"
        if sent:
            return "request"
        if verb in self.declared:
            return "external api"
        return "unreachable"


def _add(table: Dict[str, List[Site]], verb: str, site: Site) -> None:
    table.setdefault(verb, []).append(site)


def _literal_verb(node: ast.Call) -> Tuple[str, int]:
    """(verb, line) for a send/reply/request call with a literal kind."""
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) and \
            isinstance(node.args[1].value, str):
        return node.args[1].value, node.args[1].lineno
    for kw in node.keywords:
        if kw.arg == "kind" and isinstance(kw.value, ast.Constant) and \
                isinstance(kw.value.value, str):
            return kw.value.value, kw.value.lineno
    return "", 0


def _message_kind_literal(node: ast.Call) -> Tuple[str, int]:
    for kw in node.keywords:
        if kw.arg == "kind" and isinstance(kw.value, ast.Constant) and \
                isinstance(kw.value.value, str):
            return kw.value.value, kw.value.lineno
    return "", 0


def _uses_dynamic_dispatch(klass: ast.ClassDef) -> bool:
    """Does the class getattr-dispatch onto ``_handle_<kind>`` methods?"""
    for node in ast.walk(klass):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Name) and
                node.func.id == "getattr" and node.args):
            continue
        for arg in node.args:
            if isinstance(arg, ast.JoinedStr):
                head = arg.values[0] if arg.values else None
                if isinstance(head, ast.Constant) and \
                        str(head.value).startswith("_handle_"):
                    return True
    return False


def _base_names(klass: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in klass.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _dispatching_classes(sources: Iterable[SourceFile]) -> Set[str]:
    """Names of classes that dispatch onto ``_handle_*``, directly or by
    inheriting (transitively, resolved by base-class *name*) from a class
    in the tree that does."""
    dispatching: Set[str] = set()
    bases: Dict[str, Set[str]] = {}
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(_base_names(node))
                if _uses_dynamic_dispatch(node):
                    dispatching.add(node.name)
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            if name not in dispatching and parents & dispatching:
                dispatching.add(name)
                changed = True
    return dispatching


def _extract_from_source(source: SourceFile, model: VerbModel,
                         dispatching: Set[str]) -> None:
    module = source.module

    def site(line: int) -> Site:
        return Site(path=source.path, line=line, module=module)

    # docstring-declared external endpoints
    for token in _BACKTICK_RE.findall(source.docstring):
        if _VERB_RE.match(token):
            _add(model.declared, token, site(1))

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("send", "request", "reply"):
                verb, line = _literal_verb(node)
                if verb:
                    table = model.replies if node.func.attr == "reply" \
                        else model.sends
                    _add(table, verb, site(line))
                    if node.func.attr == "request":
                        _add(model.requested, verb, site(line))
                    if node.args and isinstance(node.args[0], ast.Name) \
                            and node.args[0].id == "BROADCAST":
                        _add(model.announces, verb, site(line))
            elif isinstance(node.func, ast.Name) and \
                    node.func.id == "Message":
                verb, line = _message_kind_literal(node)
                if verb:
                    _add(model.sends, verb, site(line))
        elif isinstance(node, ast.Compare):
            _extract_compare(node, model, site)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name.startswith("_handle_"):
            verb = node.name[len("_handle_"):].replace("_", "-")
            _extract_answers(verb, node.body, model, site)
        elif isinstance(node, ast.If):
            verb = _branch_verb(node.test)
            if verb:
                _extract_answers(verb, node.body, model, site)
        elif isinstance(node, ast.Assign):
            _extract_handler_dict(node, model, site)
            if any(getattr(target, "id", "") == "listens_for"
                   for target in node.targets):
                for element in getattr(node.value, "elts", ()):
                    if isinstance(element, ast.Constant):
                        _add(model.listeners, element.value, site(node.lineno))
        elif isinstance(node, ast.ClassDef) and node.name in dispatching:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and item.name.startswith("_handle_"):
                    verb = item.name[len("_handle_"):].replace("_", "-")
                    _add(model.handlers, verb, site(item.lineno))


def _extract_compare(node: ast.Compare, model: VerbModel, site) -> None:
    left = node.left
    if not (isinstance(left, ast.Attribute) and left.attr == "kind" and
            isinstance(left.value, ast.Name) and
            left.value.id in _MESSAGE_NAMES):
        return
    for op, comparator in zip(node.ops, node.comparators):
        if not isinstance(op, (ast.Eq, ast.In)):
            continue
        if isinstance(comparator, ast.Constant) and \
                isinstance(comparator.value, str):
            _add(model.handlers, comparator.value, site(comparator.lineno))
        elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
            for element in comparator.elts:
                if isinstance(element, ast.Constant) and \
                        isinstance(element.value, str):
                    _add(model.handlers, element.value, site(element.lineno))


def _branch_verb(test: ast.expr) -> str:
    """The verb of an ``if message.kind == "verb":`` test, else ''."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and \
            isinstance(test.ops[0], ast.Eq) and \
            isinstance(test.left, ast.Attribute) and \
            test.left.attr == "kind" and \
            isinstance(test.left.value, ast.Name) and \
            test.left.value.id in _MESSAGE_NAMES:
        comparator = test.comparators[0]
        if isinstance(comparator, ast.Constant) and \
                isinstance(comparator.value, str):
            return comparator.value
    return ""


def _extract_answers(verb: str, body: List[ast.stmt], model: VerbModel,
                     site) -> None:
    """Record every literal ``reply(...)`` in ``body`` as answering ``verb``."""
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "reply":
                reply, line = _literal_verb(node)
                if reply:
                    model.answers.append((verb, reply, site(line)))


def _extract_handler_dict(node: ast.Assign, model: VerbModel, site) -> None:
    if not isinstance(node.value, ast.Dict):
        return
    named_handler = False
    for target in node.targets:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name and "handler" in name.lower():
            named_handler = True
    if not named_handler:
        return
    for key in node.value.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            _add(model.handlers, key.value, site(key.lineno))


def build_model(sources: Iterable[SourceFile]) -> VerbModel:
    sources = list(sources)
    model = VerbModel()
    dispatching = _dispatching_classes(sources)
    for source in sources:
        _extract_from_source(source, model, dispatching)
    return model


class VerbChecker:
    """Cross-file checker: needs the whole model, not one source at a time."""

    def check(self, sources: List[SourceFile],
              model: Optional[VerbModel] = None) -> List[Finding]:
        if model is None:
            model = build_model(sources)
        findings: List[Finding] = []
        for verb, sites in sorted(model.sends.items()):
            if verb in model.handled_by(verb) or (
                    verb in model.declared and verb not in model.announces):
                continue
            for s in sites:
                findings.append(Finding(
                    check=CHECK_UNHANDLED_SEND, severity=Severity.ERROR,
                    path=s.path, line=s.line,
                    message=f'verb "{verb}" is sent but no component handles '
                            f'it: add a handler or declare it in a module '
                            f'docstring as external API'))
        consumed = set(model.sends) | set(model.replies) | set(model.declared)
        for verb, sites in sorted(model.handlers.items()):
            if verb in consumed:
                continue
            for s in sites:
                findings.append(Finding(
                    check=CHECK_DEAD_HANDLER, severity=Severity.ERROR,
                    path=s.path, line=s.line,
                    message=f'handler for verb "{verb}" but nothing in the '
                            f'tree sends it: delete the branch or declare '
                            f'the verb as external API in the module '
                            f'docstring'))
        for verb, reply, s in model.answers:
            if verb not in model.sends or verb in model.requested:
                continue
            findings.append(Finding(
                check=CHECK_ORPHAN_REPLY, severity=Severity.ERROR,
                path=s.path, line=s.line,
                message=f'reply "{reply}" answers verb "{verb}", which is '
                        f'only ever sent, never requested: nobody waits for '
                        f'it — delete the reply or request the verb'))
        return findings


# -- PROTOCOL.md --------------------------------------------------------------

PROTOCOL_HEADER = """# Wire protocol

Generated by `python -m repro.analysis --write-protocol` — do not edit by
hand; CI checks this file against the tree (`--check-protocol`).

Roles: a **request** verb needs a `kind`-handler at the receiver; a
**reply** verb is consumed by RPC correlation (`reply_to`) and needs none;
an **external api** verb is declared in its module's docstring and is sent
by applications or tests rather than library components. A verb sent to
`BROADCAST` is a link-local announcement: its handlers are the processes
that name it in `listens_for`, the only ones the transport delivers it to.
"""


def _modules(sites: List[Site]) -> str:
    return ", ".join(sorted({s.module for s in sites})) or "—"


def render_protocol(model: VerbModel) -> str:
    lines = [PROTOCOL_HEADER,
             "| verb | role | senders | handlers |",
             "| --- | --- | --- | --- |"]
    for verb in model.verbs():
        senders = model.sends.get(verb, []) + model.replies.get(verb, [])
        handlers = model.handled_by(verb).get(verb, [])
        lines.append(f"| `{verb}` | {model.role(verb)} | "
                     f"{_modules(senders)} | {_modules(handlers)} |")
    return "\n".join(lines) + "\n"


def protocol_drift(model: VerbModel, existing: str) -> bool:
    """True when the committed PROTOCOL.md no longer matches the tree."""
    return render_protocol(model) != existing
