"""The wire schema: every verb's fields, declared once (DESIGN.md, "Wire
schema").

A :data:`REQUESTS` row gives a verb's fields (``name?``: optional), the
reply that answers it with its failure flag, and whether it is external
API; :data:`VERBS` adds a row per reply. A field's kind is a JSON type
(matched exactly: a bool is never a number), ``guid``, or the parser that
owns a nested format. :meth:`repro.net.transport.Process.deliver` checks
each arriving request and hands the handler ``message.fields``, the
parsed values; a reply is checked by the callback waiting for it (here,
only that it is an object).
:data:`BODIES` declares the overlay's inner bodies. Parsers are imported
on first use, as their modules import the transport.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, NamedTuple, Optional

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
LIST, DICT = _json("list", list), _json("dict", dict)
ANY = Kind("any", lambda value: value)
GUID_HEX = Kind("guid", _guid)
EVENT = _parser("repro.events.event", "ContextEvent.from_wire")
FILTER = _parser("repro.events.filters", "filter_from_spec")
QUERY = _parser("repro.query.model", "Query.from_wire")
PROFILE = _parser("repro.entities.profile", "Profile.from_wire")
ADVERTISEMENT = _parser("repro.entities.advertisement",
                        "Advertisement.from_wire")
#: ``[[sub_id, n >= 1], ...]``: an ``event``'s ``subs``, an ``event-ack``'s
#: ``acks``
SEQ_PAIRS = Kind("[[int, int]]", _seq_pairs)


class Verb:
    """One row: ``fields`` maps a name (``name?``: optional) to its kind."""
    __slots__ = ("fields", "reply", "flag", "external")

    def __init__(self, fields: Optional[Dict[str, Kind]] = None,
                 reply: Optional[str] = None, flag: str = "ok",
                 external: bool = False):
        #: (name, kind, required) per field
        self.fields = tuple((name.rstrip("?"), kind, not name.endswith("?"))
                            for name, kind in (fields or {}).items())
        self.reply = reply
        self.flag = flag
        self.external = external

    def parse(self, payload: Any) -> Dict[str, Any]:
        """Each declared field ``payload`` carries, parsed; raises
        :class:`WireError` on a payload that is not an object, a missing
        required field or a value of the wrong kind."""
        if type(payload) is not dict:
            raise WireError(f"a {type(payload).__name__} is not an object")
        fields = {}
        for name, kind, required in self.fields:
            if name in payload:
                try:
                    fields[name] = kind.parse(payload[name])
                except WireError as exc:
                    raise WireError(f"{name}: {exc}") from None
            elif required:
                raise WireError(f"missing field {name!r}")
        return fields


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
    "heartbeat": Verb({"entities": LIST}),
    "o-bcast": Verb({"bcast_id": STR, "kind": STR, "body": ANY, "hops": INT,
                     "until": GUID_HEX}),
    "o-delivery": Verb({"kind": STR, "body": ANY, "hops": INT}),
    "o-hb": Verb(),
    "o-route": Verb({"key": GUID_HEX, "kind": STR, "body": ANY, "hops": INT,
                     "origin": GUID_HEX}),
    "profile-request": Verb({"entity?": GUID_HEX, "name?": STR},
                            reply="profile-response", flag="found",
                            external=True),
    "profile-update": Verb({"entity": GUID_HEX, "attributes?": DICT},
                           reply="profile-update-ack", external=True),
    "publish": Verb({"event": EVENT}, reply="publish-ack"),
    "query": Verb({"query": QUERY, "subscriber?": GUID_HEX},
                  reply="query-ack"),
    "query-result": Verb({"query_id": STR, "ok": BOOL, "error?": STR,
                          "selected?": DICT}),
    "range-offer": Verb({"range": STR, "registrar": GUID_HEX}),
    "register": Verb({"profile": PROFILE, "kind?": STR,
                      "advertisements?": _list_of(ADVERTISEMENT)},
                     reply="register-ack"),
    "resync": Verb({"sub_id": INT}, reply="resync-ack"),
    "service-invoke": Verb({"operation": STR, "args?": DICT},
                           reply="service-result"),
    "set-param": Verb({"name": STR, "value": ANY}),
    "subscribe": Verb({"subscriber": GUID_HEX, "filter": FILTER,
                       "one_time?": BOOL, "owner?": STR, "replay?": BOOL},
                      reply="subscribe-ack", external=True),
    "unsubscribe": Verb({"sub_id": INT}, reply="unsubscribe-ack",
                        external=True),
    "unsubscribe-owner": Verb({"owner": STR}, reply="unsubscribe-owner-ack",
                              external=True),
}

#: every verb on the wire: the requests and the replies that answer them (a
#: reply's row checks only that its payload is an object)
VERBS: Dict[str, Verb] = {**REQUESTS, **{
    row.reply: Verb() for row in REQUESTS.values() if row.reply}}

#: the bodies of the overlay's inner kinds that the node applies itself
BODIES: Dict[str, Verb] = {
    "dht-put": Verb({"name": STR, "value": ANY}),
    "dht-get": Verb({"name": STR}),
    "announce-range": Verb({"cs": STR, "places?": _list_of(STR),
                            "range?": STR}),
    "retract-range": Verb({"cs": STR}),
}
