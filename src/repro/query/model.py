"""The query object model (Section 4.3, Figure 6).

A query has five sections — What, Where, When, Which — plus the mode that
"indicates the intent of the query". Four modes are supported, quoting the
paper:

* **Profile request**: "In order to obtain information about CEs."
* **Event subscription**: "To subscribe to a piece of information and be
  updated with any changes."
* **One-time subscription**: "As above, but the subscription is cancelled
  after the CAA receives an event."
* **Advertisement request**: "The interface to communicate with a service."

Figure 6 puts ``query_id`` in the client's query: the client names it
(:meth:`QueryBuilder.with_id`, or the submitting application), and an
unnamed query has no wire form.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.errors import QueryError
from repro.core.memo import decode_memo
from repro.core.types import TypeSpec
from repro.location.language import LocationExpr, parse_location
from repro.query.selection import WhichClause
from repro.query.temporal import WhenClause

_PATTERN_RE = re.compile(
    r"^(?P<type>[A-Za-z0-9_.-]+)"
    r"(?:\[(?P<repr>[A-Za-z0-9_.-]+)\])?"
    r"(?:@(?P<subject>.+))?$"
)


class QueryMode(enum.Enum):
    PROFILE = "profile"
    SUBSCRIPTION = "subscribe"
    ONE_TIME = "once"
    ADVERTISEMENT = "advertisement"


@dataclass(frozen=True)
class WhatClause:
    """What the query is looking for.

    Three forms, per the paper: "an entity type (e.g. a printer), a named
    entity (identified by a GUID) or information fitting a pattern (e.g.
    temperature in degrees Celsius)".
    """

    kind: str                       # "entity-type" | "named" | "pattern"
    value: Optional[str] = None     # entity type or entity name/GUID
    pattern: Optional[TypeSpec] = None

    def __post_init__(self):
        if self.kind not in ("entity-type", "named", "pattern"):
            raise QueryError(f"unknown What kind: {self.kind!r}")
        if self.kind == "pattern" and self.pattern is None:
            raise QueryError("What 'pattern' needs a TypeSpec")
        if self.kind in ("entity-type", "named") and not self.value:
            raise QueryError(f"What {self.kind!r} needs a value")

    @classmethod
    def entity_type(cls, type_name: str) -> "WhatClause":
        return cls("entity-type", value=type_name)

    @classmethod
    def named(cls, name: str) -> "WhatClause":
        return cls("named", value=name)

    @classmethod
    def for_pattern(cls, type_name: str, representation: str = "any",
                    subject: Optional[str] = None) -> "WhatClause":
        return cls("pattern", pattern=TypeSpec(type_name, representation, subject))

    def __str__(self) -> str:
        if self.kind == "entity-type":
            return f"type:{self.value}"
        if self.kind == "named":
            return f"named:{self.value}"
        spec = self.pattern
        text = spec.type_name
        if spec.representation != "any":
            text += f"[{spec.representation}]"
        if spec.subject is not None:
            text += f"@{spec.subject}"
        return f"pattern:{text}"

    @classmethod
    @decode_memo
    def parse(cls, text: str) -> "WhatClause":
        """Memoised by text (:mod:`repro.core.memo`): the parse is pure and
        the clause and its ``TypeSpec`` are frozen, so callers share one."""
        text = text.strip()
        if text.startswith("type:"):
            return cls.entity_type(text[len("type:"):].strip())
        if text.startswith("named:"):
            return cls.named(text[len("named:"):].strip())
        if text.startswith("pattern:"):
            body = text[len("pattern:"):].strip()
            match = _PATTERN_RE.match(body)
            if not match:
                raise QueryError(f"unparseable What pattern: {body!r}")
            return cls.for_pattern(
                match.group("type"),
                match.group("repr") or "any",
                match.group("subject"),
            )
        raise QueryError(f"unparseable What clause: {text!r}")


@dataclass
class Query:
    """One complete SCI query (Figure 6)."""

    owner_id: str
    what: WhatClause
    where: LocationExpr = field(default_factory=LocationExpr.anywhere)
    when: WhenClause = field(default_factory=WhenClause.now)
    which: WhichClause = field(default_factory=WhichClause.any)
    mode: QueryMode = QueryMode.SUBSCRIPTION
    #: the client's name for it; None until the client names it
    query_id: Optional[str] = None

    # -- wire form ----------------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """The wire form; raises :class:`QueryError` for an unnamed query."""
        if not self.query_id:
            raise QueryError("an unnamed query has no wire form")
        return {
            "query_id": self.query_id,
            "owner_id": self.owner_id,
            "what": str(self.what),
            "where": str(self.where),
            "when": str(self.when),
            "which": str(self.which),
            "mode": self.mode.value,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Query":
        """Rebuild a query; raises :class:`QueryError` for one that is
        unnamed (no non-empty string ``query_id``) or lacks a field."""
        query_id = data.get("query_id")
        if not (isinstance(query_id, str) and query_id):
            raise QueryError(f"query wire form names no query_id: {query_id!r}")
        try:
            return cls(
                owner_id=data["owner_id"],
                what=WhatClause.parse(data["what"]),
                where=parse_location(data.get("where", "anywhere")),
                when=WhenClause.parse(data.get("when", "now")),
                which=WhichClause.parse(data.get("which", "any")),
                mode=QueryMode(data.get("mode", "subscribe")),
                query_id=query_id,
            )
        except KeyError as exc:
            raise QueryError(f"query wire form missing field: {exc}") from None

    def __str__(self) -> str:
        return (f"Query({self.query_id}: {self.mode.value} {self.what} "
                f"where={self.where} when={self.when} which={self.which})")


class QueryBuilder:
    """Fluent construction of queries.

    >>> query = (QueryBuilder("john")
    ...          .advertisement("printer")
    ...          .where("within(room:L10)")
    ...          .which("reachable; available; no-queue; closest-to(me)")
    ...          .build())
    """

    def __init__(self, owner_id: str):
        self._owner_id = owner_id
        self._what: Optional[WhatClause] = None
        self._where = LocationExpr.anywhere()
        self._when = WhenClause.now()
        self._which = WhichClause.any()
        self._mode = QueryMode.SUBSCRIPTION
        self._query_id: Optional[str] = None

    # What + mode shorthands -----------------------------------------------------

    def profile_of(self, name: str) -> "QueryBuilder":
        self._what = WhatClause.named(name)
        self._mode = QueryMode.PROFILE
        return self

    def profiles_of_type(self, entity_type: str) -> "QueryBuilder":
        self._what = WhatClause.entity_type(entity_type)
        self._mode = QueryMode.PROFILE
        return self

    def subscribe(self, type_name: str, representation: str = "any",
                  subject: Optional[str] = None) -> "QueryBuilder":
        self._what = WhatClause.for_pattern(type_name, representation, subject)
        self._mode = QueryMode.SUBSCRIPTION
        return self

    def once(self, type_name: str, representation: str = "any",
             subject: Optional[str] = None) -> "QueryBuilder":
        self._what = WhatClause.for_pattern(type_name, representation, subject)
        self._mode = QueryMode.ONE_TIME
        return self

    def advertisement(self, entity_type: str) -> "QueryBuilder":
        self._what = WhatClause.entity_type(entity_type)
        self._mode = QueryMode.ADVERTISEMENT
        return self

    # Remaining clauses -------------------------------------------------------------

    def where(self, expr: object) -> "QueryBuilder":
        self._where = expr if isinstance(expr, LocationExpr) else parse_location(str(expr))
        return self

    def when(self, clause: object) -> "QueryBuilder":
        self._when = clause if isinstance(clause, WhenClause) else WhenClause.parse(str(clause))
        return self

    def which(self, clause: object) -> "QueryBuilder":
        self._which = clause if isinstance(clause, WhichClause) else WhichClause.parse(str(clause))
        return self

    def with_id(self, query_id: str) -> "QueryBuilder":
        self._query_id = query_id
        return self

    def build(self) -> Query:
        if self._what is None:
            raise QueryError("a query needs a What clause")
        return Query(owner_id=self._owner_id, what=self._what,
                     where=self._where, when=self._when, which=self._which,
                     mode=self._mode, query_id=self._query_id)
