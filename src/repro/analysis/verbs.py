"""Protocol-verb cross-checker: the wire protocol must stay closed.

Every verb a component sends must have a receiver that understands it, and
every handler must correspond to a verb somebody can actually send — a
handler nobody reaches is dead code, and a send nobody handles is a silent
black hole (the transport delivers it, the dispatcher finds no handler
and counts it in ``net.messages.unhandled``, and the ack/retry layer burns
retries until the request times out).

The checker builds a whole-tree model from three extraction passes:

*sends* — string-literal verbs in ``send(peer, "verb", ...)``,
``request(peer, "verb", ...)`` and ``Message(kind="verb")``. Verbs sent only
via ``reply(original, "verb", ...)`` are *reply verbs*: they are consumed by
RPC correlation on ``reply_to`` (:mod:`repro.net.rpc`), so they need no
handler.

*handlers* — every ``_handle_<verb>`` method of a class (the verb with
``-`` written ``_``). That is the transport's one dispatch rule
(``Process.on_message`` hands a non-reply arrival to the recipient's
``_handle_<verb>``), so the name is the declaration: a ``kind``
comparison or a dict of callables receives nothing and handles nothing.

*announcements* — a verb sent to ``BROADCAST`` reaches only the processes
whose class names it in ``listens_for = ("verb", ...)``, so for such a verb
those declarations, not ``_handle_`` methods, are its handlers (a
listener still handles it with one).

*external api* — a verb whose :data:`repro.net.wire.VERBS` row is flagged
external (e.g. ``subscribe``: tests and applications send it even though
no library component does) is exempt from the dead-handler check and
listed as "external api" in the generated ``PROTOCOL.md``, whose fields
column comes from the same row.

*answers* — the verb a reply verb answers is the one whose wire row names
it as its reply. A reply only has a reader if that verb is sent with
``request(...)``, whose correlation waits on ``reply_to``.

Checks: ``verbs.unhandled-send``, ``verbs.dead-handler``,
``verbs.handler-signature`` (a ``_handle_`` method that does not take
exactly ``(self, message)``, the one call the dispatcher makes),
``verbs.orphan-reply`` (a reply that answers no verb in the wire table, or
one that the tree only ever ``send``s, never ``request``s: nobody waits for
it, so it is counted unhandled or reaches a process that already left),
``verbs.raw-payload`` (outside ``repro.net``/``repro.ledger``, a key read on
the ``payload`` of a ``Message`` parameter or ``on_reply`` lambda's, or that
``payload`` handed to an ``on_*`` hook) and
(CLI-level)
``verbs.protocol-drift`` when the committed ``PROTOCOL.md`` no longer
matches the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import SourceFile
from repro.net.wire import BODIES, VERBS, Verb

CHECK_UNHANDLED_SEND = "verbs.unhandled-send"
CHECK_DEAD_HANDLER = "verbs.dead-handler"
CHECK_ORPHAN_REPLY = "verbs.orphan-reply"
CHECK_PROTOCOL_DRIFT = "verbs.protocol-drift"
CHECK_RAW_PAYLOAD = "verbs.raw-payload"
CHECK_HANDLER_SIGNATURE = "verbs.handler-signature"

#: the packages that own the wire format and may read payloads by key
_PAYLOAD_OWNERS = ("repro.net.", "repro.ledger.")

#: the method-name prefix the dispatcher maps a verb onto
_HANDLE = "_handle_"


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
    #: verbs sent to ``BROADCAST``; verbs some class ``listens_for``
    announces: Dict[str, List[Site]] = field(default_factory=dict)
    listeners: Dict[str, List[Site]] = field(default_factory=dict)
    #: the subset of ``sends`` made through ``request(...)``
    requested: Dict[str, List[Site]] = field(default_factory=dict)

    def handled_by(self, verb: str) -> Dict[str, List[Site]]:
        return self.listeners if verb in self.announces else self.handlers

    def verbs(self) -> List[str]:
        """Verbs that exist on the wire: sent, replied or handled somewhere
        (a wire table row alone creates none)."""
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
        if _external(verb):
            return "external api"
        return "unreachable"


#: reply verb -> the verb whose wire row names it as its reply
_ANSWERED = {row.reply: verb for verb, row in VERBS.items() if row.reply}


def _external(verb: str) -> bool:
    row = VERBS.get(verb)
    return row is not None and row.external


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


def _handler_methods(tree: ast.AST) -> Iterable[ast.FunctionDef]:
    """Every ``_handle_<verb>`` method of every class in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and item.name.startswith(_HANDLE):
                    yield item


def _extract_from_source(source: SourceFile, model: VerbModel) -> None:
    module = source.module

    def site(line: int) -> Site:
        return Site(path=source.path, line=line, module=module)

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
                verb, line = _literal_verb(node)  # a kind= keyword
                if verb:
                    _add(model.sends, verb, site(line))
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", "") == "listens_for"
                for target in node.targets):
            for element in getattr(node.value, "elts", ()):
                if isinstance(element, ast.Constant):
                    _add(model.listeners, element.value, site(node.lineno))
    for method in _handler_methods(source.tree):
        verb = method.name[len(_HANDLE):].replace("_", "-")
        _add(model.handlers, verb, site(method.lineno))


def build_model(sources: Iterable[SourceFile]) -> VerbModel:
    model = VerbModel()
    for source in sources:
        _extract_from_source(source, model)
    return model


def _handler_signatures(source: SourceFile) -> List[Finding]:
    """A ``_handle_`` method the dispatcher cannot call as
    ``handler(message)``: anything but two plain positional parameters."""
    findings = []
    for method in _handler_methods(source.tree):
        args = method.args
        if len(args.posonlyargs) + len(args.args) == 2 and not (
                args.vararg or args.kwonlyargs or args.kwarg
                or args.defaults):
            continue
        findings.append(Finding(
            check=CHECK_HANDLER_SIGNATURE, severity=Severity.ERROR,
            path=source.path, line=method.lineno,
            message=f"{method.name} must take exactly (self, message): "
                    f"the dispatcher calls it with the message alone; "
                    f"rename a reply callback off the {_HANDLE} prefix"))
    return findings


def _is_message(annotation: Optional[ast.expr]) -> bool:
    return annotation is not None and ast.unparse(annotation).strip(
        "'\"").rpartition(".")[2] == "Message"


def _raw_payload_reads(source: SourceFile) -> List[Finding]:
    if f"{source.module}.".startswith(_PAYLOAD_OWNERS):
        return []
    scopes = []  # (function or on_reply lambda, its message parameters)
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node, {arg.arg for arg in node.args.args
                                  if _is_message(arg.annotation)}))
        elif isinstance(node, ast.keyword) and node.arg == "on_reply" \
                and isinstance(node.value, ast.Lambda):
            scopes.append((node.value,
                           {arg.arg for arg in node.value.args.args}))
    findings = []

    def raw(node: Optional[ast.expr], why: str) -> None:
        if isinstance(node, ast.Attribute) and node.attr == "payload" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in names:
            findings.append(Finding(
                check=CHECK_RAW_PAYLOAD, severity=Severity.ERROR,
                path=source.path, line=node.lineno,
                message=f"{node.value.id}.payload {why} the fields its wire "
                        f"row checked"))

    for scope, names in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Subscript):
                raw(node.value, "read by key: read")
            elif isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "attr", getattr(callee, "id", ""))
                if name == "get" and isinstance(callee, ast.Attribute):
                    raw(callee.value, "read by key: read")
                elif name.startswith("on_"):
                    for arg in node.args + [k.value for k in node.keywords]:
                        raw(arg, f"handed to the {name} hook: hand it")
    return findings


class VerbChecker:
    """Cross-file checker: needs the whole model, not one source at a time."""

    def check(self, sources: List[SourceFile],
              model: Optional[VerbModel] = None) -> List[Finding]:
        if model is None:
            model = build_model(sources)
        findings: List[Finding] = []
        for verb, sites in sorted(model.sends.items()):
            if verb in model.handled_by(verb) or (
                    _external(verb) and verb not in model.announces):
                continue
            for s in sites:
                findings.append(Finding(
                    check=CHECK_UNHANDLED_SEND, severity=Severity.ERROR,
                    path=s.path, line=s.line,
                    message=f'verb "{verb}" is sent but no component handles '
                            f'it: add a handler or flag its repro.net.wire '
                            f'row as external API'))
        consumed = set(model.sends) | set(model.replies)
        for verb, sites in sorted(model.handlers.items()):
            if verb in consumed or _external(verb):
                continue
            for s in sites:
                findings.append(Finding(
                    check=CHECK_DEAD_HANDLER, severity=Severity.ERROR,
                    path=s.path, line=s.line,
                    message=f'handler for verb "{verb}" but nothing in the '
                            f'tree sends it: delete the branch or flag its '
                            f'repro.net.wire row as external API'))
        for reply, sites in sorted(model.replies.items()):
            verb = _ANSWERED.get(reply)
            if verb is None:
                why = "no verb in repro.net.wire: name it as a row's reply"
            elif verb in model.sends and verb not in model.requested:
                why = (f'verb "{verb}", which is only ever sent, never '
                       f'requested: nobody waits for it — delete the reply '
                       f'or request the verb')
            else:
                continue
            for s in sites:
                findings.append(Finding(
                    check=CHECK_ORPHAN_REPLY, severity=Severity.ERROR,
                    path=s.path, line=s.line,
                    message=f'reply "{reply}" answers {why}'))
        for source in sources:
            findings.extend(_handler_signatures(source))
            findings.extend(_raw_payload_reads(source))
        return findings


# -- PROTOCOL.md --------------------------------------------------------------

PROTOCOL_HEADER = """# Wire protocol

Generated by `python -m repro.analysis --write-protocol` — do not edit by
hand; CI checks this file against the tree (`--check-protocol`).

Roles: a **request** verb needs a `_handle_<verb>` method at the receiver; a
**reply** verb is consumed by RPC correlation (`reply_to`) and needs none;
an **external api** verb is flagged so in its `repro.net.wire` row and is
sent by applications or tests rather than library components. A verb sent
to `BROADCAST` is a link-local announcement: its handlers are the processes
that name it in `listens_for`, the only ones the transport delivers it to.

Fields come from the same rows (`name?` is optional), checked where a
request or reply arrives; a reply whose flag is false is a refusal, which
needs only the flag. The overlay's inner bodies follow the verb table.
"""


def _modules(sites: List[Site]) -> str:
    return ", ".join(sorted({s.module for s in sites})) or "—"


def _fields(row: Optional[Verb]) -> str:
    if row is None or not row.fields:
        return "—"
    fields = ", ".join(f"`{name}{'' if required else '?'}` {kind.name}"
                       for name, kind, required in row.fields)
    return f"{fields}; flag `{row.flag}`" if row.flag else fields


def render_protocol(model: VerbModel) -> str:
    lines = [PROTOCOL_HEADER,
             "| verb | role | fields | senders | handlers |",
             "| --- | --- | --- | --- | --- |"]
    for verb in model.verbs():
        senders = model.sends.get(verb, []) + model.replies.get(verb, [])
        handlers = model.handled_by(verb).get(verb, [])
        lines.append(f"| `{verb}` | {model.role(verb)} | "
                     f"{_fields(VERBS.get(verb))} | "
                     f"{_modules(senders)} | {_modules(handlers)} |")
    lines += ["", "| overlay body | fields |", "| --- | --- |"]
    lines += [f"| `{kind}` | {_fields(row)} |"
              for kind, row in sorted(BODIES.items())]
    return "\n".join(lines) + "\n"


def protocol_drift(model: VerbModel, existing: str) -> bool:
    """True when the committed PROTOCOL.md no longer matches the tree."""
    return render_protocol(model) != existing
