"""When — the temporal aspect of a query (Section 4.3).

"When: The temporal aspect of the query, the conditions under which the
configuration should be executed." CAPA's scenario exercises the interesting
case: Bob's query waits until *he enters room L10.01*, so the Context Server
stores the built configuration "until its temporal constraints are
satisfied" and listens for the triggering event.

Supported conditions:

``now``                      execute immediately
``at(T)``                    execute at absolute simulated time T
``after(D)``                 execute D time units after submission
``enters(entity, place)``    execute when ``entity`` enters ``place``

Any condition may carry ``until(T)``: the query expires (is answered with
a failure) if not triggered *before* absolute time T. The boundary is
inclusive — a trigger landing exactly at T never executes — so the
query's expiry timer, armed at T, and a same-instant trigger agree on the
outcome regardless of which runs first (see ``ContextServer._release``).

Textual form examples: ``"now"``, ``"after(30)"``,
``"enters(bob, L10.01) until(600)"``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import QueryError
from repro.core.memo import decode_memo

KINDS = ("now", "at", "after", "enters")

_ENTERS_RE = re.compile(r"^enters\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")
_AT_RE = re.compile(r"^at\(\s*([-+0-9.eE]+)\s*\)$")
_AFTER_RE = re.compile(r"^after\(\s*([-+0-9.eE]+)\s*\)$")
_UNTIL_RE = re.compile(r"\s*until\(\s*([-+0-9.eE]+)\s*\)\s*$")


@dataclass(frozen=True)
class WhenClause:
    """The temporal condition of one query."""

    kind: str = "now"
    time: Optional[float] = None        # at / after operand
    entity: Optional[str] = None        # enters operand
    place: Optional[str] = None         # enters operand
    expires: Optional[float] = None     # absolute expiry time

    def __post_init__(self):
        if self.kind not in KINDS:
            raise QueryError(f"unknown When kind: {self.kind!r}")
        if self.kind in ("at", "after") and self.time is None:
            raise QueryError(f"When {self.kind!r} needs a time operand")
        if self.kind == "enters" and (self.entity is None or self.place is None):
            raise QueryError("When 'enters' needs entity and place operands")
        # a non-finite time would render as inf/nan, which has no wire form
        for operand in (self.time, self.expires):
            if operand is not None and not math.isfinite(operand):
                raise QueryError(f"non-finite When time: {operand!r}")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def now(cls) -> "WhenClause":
        return cls("now")

    @classmethod
    def at(cls, time: float, expires: Optional[float] = None) -> "WhenClause":
        return cls("at", time=float(time), expires=expires)

    @classmethod
    def after(cls, delay: float, expires: Optional[float] = None) -> "WhenClause":
        if delay < 0:
            raise QueryError(f"negative delay: {delay}")
        return cls("after", time=float(delay), expires=expires)

    @classmethod
    def when_enters(cls, entity: str, place: str,
                    expires: Optional[float] = None) -> "WhenClause":
        return cls("enters", entity=entity, place=place, expires=expires)

    # -- evaluation --------------------------------------------------------------

    @property
    def immediate(self) -> bool:
        return self.kind == "now"

    def trigger_time(self, submitted_at: float) -> Optional[float]:
        """Absolute firing time for time-based conditions (None for events)."""
        if self.kind == "now":
            return submitted_at
        if self.kind == "at":
            return self.time
        if self.kind == "after":
            return submitted_at + self.time
        return None

    def matches_entry(self, entity: str, place: str) -> bool:
        """Does ``entity`` entering ``place`` satisfy an 'enters' condition?"""
        return (self.kind == "enters"
                and self.entity == entity
                and self.place == place)

    def expired(self, now: float) -> bool:
        """Inclusive boundary: at ``now == expires`` the query is expired.

        Pinned this way so an ``enters`` trigger and the query's expiry
        timer landing at the same sim-time resolve identically — both see
        the query as dead — instead of racing on execution order.
        """
        return self.expires is not None and now >= self.expires

    # -- text form -----------------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == "now":
            body = "now"
        elif self.kind == "at":
            body = f"at({_time_text(self.time)})"
        elif self.kind == "after":
            body = f"after({_time_text(self.time)})"
        else:
            body = f"enters({self.entity}, {self.place})"
        if self.expires is not None:
            body += f" until({_time_text(self.expires)})"
        return body

    @classmethod
    @decode_memo
    def parse(cls, text: str) -> "WhenClause":
        """Memoised by text (:mod:`repro.core.memo`): the parse is pure and
        the clause is frozen, so callers share one."""
        text = text.strip()
        expires = None
        until = _UNTIL_RE.search(text)
        if until:
            expires = _number(until.group(1))
            text = text[: until.start()].strip()
        if not text:
            # a bare "until(600)" (or "") has no condition to expire; do
            # not silently coerce it to an expiring "now"
            raise QueryError("empty When clause body")
        if text == "now":
            return cls("now", expires=expires)
        match = _AT_RE.match(text)
        if match:
            return cls.at(_number(match.group(1)), expires)
        match = _AFTER_RE.match(text)
        if match:
            return cls.after(_number(match.group(1)), expires)
        match = _ENTERS_RE.match(text)
        if match:
            return cls.when_enters(match.group(1), match.group(2), expires)
        raise QueryError(f"unparseable When clause: {text!r}")


def _time_text(value: float) -> str:
    """Text that parses back to exactly ``value``: ``:g`` where its six
    digits suffice (``at(50)``), else ``repr``, which round-trips every
    float (``:g`` alone sends ``at(12345.678)`` as ``at(12345.7)``)."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _number(token: str) -> float:
    """A time operand; a token the number pattern admits but ``float``
    does not (``.``, ``1e``, ``+-1``) is a :class:`QueryError`."""
    try:
        return float(token)
    except ValueError:
        raise QueryError(f"malformed When time: {token!r}") from None
