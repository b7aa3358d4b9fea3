"""The intermediate location language (Section 3.3).

"To facilitate this it will be necessary to develop an intermediate location
language." — the paper leaves it at that, so we define a small, explicit
expression language that every location model can produce and consume. It is
the form the Where clause of a query (Figure 6) is written in.

Textual forms::

    anywhere                    no constraint
    me                          the query owner's current location
    room:L10.01                 a symbolic place
    point:12.5,3.0              a geometric position (metres)
    entity:bob                  wherever entity "bob" currently is
    within(room:L10)            containment in a (possibly non-leaf) place
    near(entity:bob, 5.0)       within a radius (metres) of another location

Expressions nest: ``near(room:lobby, 3)``, ``within(room:L10)``. Parsing is
by a tiny recursive-descent reader; :func:`parse_location` and ``str()`` are
inverses, which is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.errors import LocationError
from repro.core.memo import decode_memo

#: The expression kinds understood by the language.
KINDS = ("anywhere", "me", "room", "point", "entity", "within", "near")


@dataclass(frozen=True)
class LocationExpr:
    """One node of the intermediate location language."""

    kind: str
    name: Optional[str] = None              # room / entity name
    point: Optional[Tuple[float, float]] = None
    inner: Optional["LocationExpr"] = None  # within / near operand
    radius: Optional[float] = None          # near

    def __post_init__(self):
        if self.kind not in KINDS:
            raise LocationError(f"unknown location expression kind: {self.kind!r}")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def anywhere(cls) -> "LocationExpr":
        return cls("anywhere")

    @classmethod
    def me(cls) -> "LocationExpr":
        return cls("me")

    @classmethod
    def room(cls, name: str) -> "LocationExpr":
        return cls("room", name=name)

    @classmethod
    def at_point(cls, x: float, y: float) -> "LocationExpr":
        return cls("point", point=(float(x), float(y)))

    @classmethod
    def entity(cls, name: str) -> "LocationExpr":
        return cls("entity", name=name)

    @classmethod
    def within(cls, inner: "LocationExpr") -> "LocationExpr":
        return cls("within", inner=inner)

    @classmethod
    def near(cls, inner: "LocationExpr", radius: float) -> "LocationExpr":
        if radius <= 0:
            raise LocationError(f"non-positive radius: {radius}")
        return cls("near", inner=inner, radius=float(radius))

    # -- properties ---------------------------------------------------------------

    @property
    def is_constraint_free(self) -> bool:
        return self.kind == "anywhere"

    def references_owner(self) -> bool:
        """Does this expression depend on who asked (``me``)?"""
        if self.kind == "me":
            return True
        return self.inner.references_owner() if self.inner is not None else False

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == "anywhere":
            return "anywhere"
        if self.kind == "me":
            return "me"
        if self.kind == "room":
            return f"room:{self.name}"
        if self.kind == "point":
            # repr() round-trips floats exactly; %g truncates to 6 digits
            return f"point:{self.point[0]!r},{self.point[1]!r}"
        if self.kind == "entity":
            return f"entity:{self.name}"
        if self.kind == "within":
            return f"within({self.inner})"
        if self.kind == "near":
            return f"near({self.inner}, {self.radius!r})"
        raise LocationError(f"unrenderable kind: {self.kind!r}")  # pragma: no cover


@decode_memo
def parse_location(text: str) -> LocationExpr:
    """Parse the textual form back into a :class:`LocationExpr`.

    Memoised by text (:mod:`repro.core.memo`): the parse is pure and a
    ``LocationExpr`` is frozen, so every caller may share one result.

    >>> parse_location("near(entity:bob, 5)")
    LocationExpr(kind='near', ..., radius=5.0)
    """
    expr, rest = _parse_expr(text.strip())
    if rest.strip():
        raise LocationError(f"trailing input in location expression: {rest!r}")
    return expr


def _parse_expr(text: str) -> Tuple[LocationExpr, str]:
    text = text.lstrip()
    if not text:
        raise LocationError("empty location expression")

    for literal, builder in (("anywhere", LocationExpr.anywhere), ("me", LocationExpr.me)):
        if text.startswith(literal) and _ends_token(text, len(literal)):
            return builder(), text[len(literal):]

    if text.startswith("within("):
        inner, rest = _parse_expr(text[len("within("):])
        rest = _expect(rest, ")")
        return LocationExpr.within(inner), rest

    if text.startswith("near("):
        inner, rest = _parse_expr(text[len("near("):])
        rest = _expect(rest, ",")
        number, rest = _parse_number(rest)
        rest = _expect(rest, ")")
        return LocationExpr.near(inner, number), rest

    if text.startswith("room:"):
        name, rest = _parse_name(text[len("room:"):])
        return LocationExpr.room(name), rest

    if text.startswith("entity:"):
        name, rest = _parse_name(text[len("entity:"):])
        return LocationExpr.entity(name), rest

    if text.startswith("point:"):
        x, rest = _parse_number(text[len("point:"):])
        rest = _expect(rest, ",")
        y, rest = _parse_number(rest)
        return LocationExpr.at_point(x, y), rest

    raise LocationError(f"unparseable location expression: {text!r}")


def _ends_token(text: str, index: int) -> bool:
    return index >= len(text) or text[index] in ",) \t"


def _parse_name(text: str) -> Tuple[str, str]:
    index = 0
    while index < len(text) and text[index] not in ",) \t":
        index += 1
    name = text[:index]
    if not name:
        raise LocationError(f"expected a name in location expression: {text!r}")
    return name, text[index:]


def _parse_number(text: str) -> Tuple[float, str]:
    text = text.lstrip()
    index = 0
    while index < len(text) and (text[index].isdigit() or text[index] in "+-.eE"):
        index += 1
    token = text[:index]
    try:
        return float(token), text[index:]
    except ValueError:
        raise LocationError(f"expected a number in location expression: {text!r}") from None


def _expect(text: str, token: str) -> str:
    text = text.lstrip()
    if not text.startswith(token):
        raise LocationError(f"expected {token!r} in location expression: {text!r}")
    return text[len(token):]
