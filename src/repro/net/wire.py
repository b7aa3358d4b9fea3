"""The wire schema: every verb's fields, declared once (DESIGN.md, "Wire
schema").

A :data:`REQUESTS` row gives a verb's fields (``name?``: optional), the
reply that answers it, and whether it is external API; a :data:`REPLIES`
row, an answer's fields and its flag (see :class:`Verb`). A field's kind is
a JSON type (matched exactly: a bool is never a number), ``guid``, or the
parser that owns a nested format. :meth:`repro.net.transport.Process.deliver`
checks each arriving request and reply and hands the handler, or the
callback waiting for the reply, ``message.fields``: the parsed values. A
reply that fails its row is dropped there, a lost reply to its request.
:data:`BODIES` declares the overlay's inner bodies. Parsers are imported
on first use, as their modules import the transport.
"""

from __future__ import annotations

import importlib
import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.core.errors import SCIError
from repro.core.ids import GUID


class WireError(ValueError):
    """A payload does not match its verb's row."""


class Kind(NamedTuple):
    """``parse`` returns what handlers get, or raises :class:`WireError`."""
    name: str
    parse: Callable[[Any], Any]


def _json(name: str, *types: type) -> Kind:
    def parse(value: Any) -> Any:
        if type(value) in types:
            return value
        raise WireError(f"a {type(value).__name__} is not {name}")
    return Kind(name, parse)


def _list_of(kind: Kind) -> Kind:
    parse_item = kind.parse

    def parse(value: Any) -> list:
        if type(value) is not list:
            raise WireError(f"a {type(value).__name__} is not a list")
        return [parse_item(item) for item in value]
    return Kind(f"[{kind.name}]", parse)


def _guid(value: Any) -> GUID:
    try:
        return GUID.from_hex(value)
    except (TypeError, ValueError):
        raise WireError(f"{value!r} is not a guid") from None


def _ranged(name: str, types: tuple, test: Callable[[Any], bool]) -> Kind:
    def parse(value: Any) -> Any:
        if type(value) in types and test(value):
            return value
        raise WireError(f"{value!r} is not {name}")
    return Kind(name, parse)


def _seq_pairs(value: Any) -> list:
    if type(value) is not list:
        raise WireError(f"a {type(value).__name__} is not a list")
    for pair in value:
        if (type(pair) is not list or len(pair) != 2
                or type(pair[0]) is not int or type(pair[1]) is not int
                or pair[1] < 1):
            raise WireError(f"{pair!r} is not a [sub_id, n >= 1] pair")
    return value


def _parser(module: str, path: str) -> Kind:
    """``module``'s ``path`` (function or ``Class.method``), looked up per
    call."""
    owner_path, _, attribute = path.rpartition(".")
    owner = None

    def parse(value: Any) -> Any:
        nonlocal owner
        if owner is None:
            owner = importlib.import_module(module)
            if owner_path:
                owner = getattr(owner, owner_path)
        try:
            return getattr(owner, attribute)(value)
        except (SCIError, KeyError, TypeError, ValueError,
                AttributeError) as exc:
            raise WireError(f"{path}: {exc!r}") from None
    return Kind(path, parse)


STR, INT, BOOL = _json("str", str), _json("int", int), _json("bool", bool)
DICT = _json("dict", dict)
#: the plain JSON kinds, whose exact type a compiled row tests inline
_EXACT = {STR: str, INT: int, BOOL: bool, DICT: dict}
ANY = Kind("any", lambda value: value)
GUID_HEX = Kind("guid", _guid)
EVENT = _parser("repro.events.event", "ContextEvent.from_wire")
FILTER = _parser("repro.events.filters", "filter_from_spec")
QUERY = _parser("repro.query.model", "Query.from_wire")
PROFILE = _parser("repro.entities.profile", "Profile.from_wire")
ADVERTISEMENT = _parser("repro.entities.advertisement",
                        "Advertisement.from_wire")
LEASE = _ranged("lease", (int, float), lambda value: 0 < value < math.inf)
COUNT = _ranged("int >= 0", (int,), lambda value: value >= 0)
#: ``[[sub_id, n >= 1], ...]``: an ``event``'s ``subs``, an ``event-ack``'s
#: ``acks``
SEQ_PAIRS = Kind("[[int, int]]", _seq_pairs)


class Verb:
    """One row: ``fields`` maps a name (``name?``: optional) to its kind. A
    request row names its ``reply``, a reply row its ``flag``: a reply whose
    flag is ``False`` is a refusal, checked as ``{flag: bool, "error?":
    str}`` (what ``Process.refuse`` sends) plus the row's other fields, all
    optional. ``parse(payload)`` is the row compiled (:func:`_compile`)."""
    __slots__ = ("fields", "reply", "flag", "external", "parse")

    def __init__(self, fields: Optional[Dict[str, Kind]] = None,
                 reply: Optional[str] = None, flag: Optional[str] = None,
                 external: bool = False):
        #: (name, kind, required) per field
        self.fields = tuple((name.rstrip("?"), kind, not name.endswith("?"))
                            for name, kind in (fields or {}).items())
        self.reply = reply
        self.flag = flag
        self.external = external
        self.parse = _compile(self.fields, flag)


def _compile(fields: tuple, flag: Optional[str]) -> Callable[[Any], dict]:
    """A row's check as one function: each declared field ``payload``
    carries, parsed, or :class:`WireError` for a payload that is not an
    object, a missing required field or a value of the wrong kind (the
    first in the row's order). It is generated as source so the checks are
    inline: one lookup of ``flag`` picks the refusal row, a missing name and
    a plain JSON kind's exact type are tested in place, an ``any`` value is
    only copied, and any other kind's ``parse`` is called."""
    env: Dict[str, Any] = {"WireError": WireError}
    lines = ["def parse(payload):", "    if type(payload) is not dict:",
             "        raise WireError(f'a {type(payload).__name__} is not an "
             "object')"]
    if flag:
        lines.append(f"    if payload.get({flag!r}) is False:")
        lines += _checks(((flag, BOOL, True), ("error", STR, False)) + tuple(
            (name, kind, False) for name, kind, _ in fields
            if name not in (flag, "error")), env, " " * 8)
    exec("\n".join(lines + _checks(fields, env, " " * 4)), env)
    return env["parse"]


def _checks(fields: tuple, env: Dict[str, Any], pad: str) -> List[str]:
    lines = [f"{pad}fields = {{}}"]
    for name, kind, required in fields:
        lines += [f"{pad}if {name!r} in payload:",
                  f"{pad}    value = payload[{name!r}]"]
        check = f"_{len(env)}"  # a fresh global for the exact type or parse
        if kind in _EXACT:
            env[check] = _EXACT[kind]
            lines += [f"{pad}    if type(value) is not {check}:",
                      f"{pad}        raise WireError({f'{name}: a '!r} + "
                      f"type(value).__name__ + {f' is not {kind.name}'!r})"]
        elif kind is not ANY:
            env[check] = kind.parse
            lines += [f"{pad}    try:", f"{pad}        value = {check}(value)",
                      f"{pad}    except WireError as exc:",
                      f"{pad}        raise WireError({f'{name}: '!r} + "
                      "str(exc)) from None"]
        lines.append(f"{pad}    fields[{name!r}] = value")
        if required:
            lines += [f"{pad}else:", f"{pad}    raise WireError("
                      f"{f'missing field {name!r}'!r})"]
    return lines + [f"{pad}return fields"]


#: each reply's fields, checked when its flag is not ``False``
REPLIES: Dict[str, Verb] = {
    "profile-response": Verb({"found": BOOL, "profile": PROFILE,
                              "advertisements": _list_of(ADVERTISEMENT)},
                             flag="found"),
    "profile-update-ack": Verb({"ok": BOOL}, flag="ok"),
    "publish-ack": Verb({"delivered": INT}, flag="ok"),
    "query-ack": Verb({"ok": BOOL, "query_id": STR, "status": STR,
                       "error?": STR}, flag="ok"),
    "register-ack": Verb({"ok": BOOL, "range?": STR,
                          "context_server": GUID_HEX,
                          "event_mediator": GUID_HEX, "lease": LEASE},
                         flag="ok"),
    "resync-ack": Verb({"ok": BOOL, "sub_id": INT, "seq": COUNT}, flag="ok"),
    "service-result": Verb({"ok": BOOL, "result?": ANY, "error?": STR},
                           flag="ok"),
    "subscribe-ack": Verb({"sub_id": INT}, flag="ok"),
    "unsubscribe-ack": Verb({"removed": BOOL}, flag="ok"),
    "unsubscribe-owner-ack": Verb({"removed": INT}, flag="ok"),
}

REQUESTS: Dict[str, Verb] = {
    "cancel-query": Verb({"query_id": STR}),
    "component-up": Verb({"kind?": STR}),
    "deregister": Verb({"entity?": GUID_HEX}),
    "deregistered": Verb({"reason?": STR}),
    # each receiver parses the event: one that does not parse still uses up
    # its seqs, so the stream sees no hole
    "event": Verb({"subs": SEQ_PAIRS, "event?": ANY}),
    "event-ack": Verb({"acks": SEQ_PAIRS}),
    "h-route": Verb({"target": STR, "kind": STR, "body": ANY, "hops": INT}),
    "heartbeat": Verb({"entities": _list_of(STR)}),
    "o-bcast": Verb({"bcast_id": STR, "kind": STR, "body": ANY, "hops": INT,
                     "until": GUID_HEX}),
    "o-delivery": Verb({"kind": STR, "body": ANY, "hops": INT}),
    "o-hb": Verb(),
    "o-route": Verb({"key": GUID_HEX, "kind": STR, "body": ANY, "hops": INT,
                     "origin": GUID_HEX}),
    "profile-request": Verb({"entity?": GUID_HEX, "name?": STR},
                            reply="profile-response",
                            external=True),
    "profile-update": Verb({"entity": GUID_HEX, "attributes?": DICT},
                           reply="profile-update-ack", external=True),
    "publish": Verb({"event": EVENT}, reply="publish-ack"),
    "query": Verb({"query": QUERY, "subscriber?": GUID_HEX},
                  reply="query-ack"),
    "query-result": Verb({"query_id": STR, "ok": BOOL, "error?": STR,
                          "mode?": STR, "profiles?": _list_of(DICT),
                          "candidates?": _list_of(DICT),
                          "selected?": DICT}),
    "range-offer": Verb({"range": STR, "registrar": GUID_HEX}),
    "register": Verb({"profile": PROFILE, "kind?": STR,
                      "advertisements?": _list_of(ADVERTISEMENT)},
                     reply="register-ack"),
    "resync": Verb({"sub_id": INT}, reply="resync-ack"),
    "service-invoke": Verb({"operation": STR, "args?": DICT},
                           reply="service-result"),
    "subscribe": Verb({"subscriber": GUID_HEX, "filter": FILTER,
                       "one_time?": BOOL, "owner?": STR, "replay?": BOOL},
                      reply="subscribe-ack", external=True),
    "unsubscribe": Verb({"sub_id": INT}, reply="unsubscribe-ack",
                        external=True),
    "unsubscribe-owner": Verb({"owner": STR}, reply="unsubscribe-owner-ack",
                              external=True),
}

#: every verb on the wire: the requests and the replies that answer them
VERBS: Dict[str, Verb] = {**REQUESTS, **REPLIES}

#: the bodies of the overlay's inner kinds that the node applies itself
BODIES: Dict[str, Verb] = {
    "dht-put": Verb({"name": STR, "value": ANY}),
    "dht-get": Verb({"name": STR}),
    "announce-range": Verb({"cs": STR, "places?": _list_of(STR),
                            "range?": STR}),
    "retract-range": Verb({"cs": STR}),
}
