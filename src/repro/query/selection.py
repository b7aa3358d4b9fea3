"""Which — qualitative selection among candidate entities (Section 4.3).

"Which: The desired qualitative aspects governing selection from multiple
entities (e.g. shortest time to service completion)." John's CAPA query is
the canonical instance: *closest free printer with no queue* — a conjunction
of availability filters plus a distance ranking.

A :class:`WhichClause` is an ordered list of :class:`Criterion` steps.
Filter criteria eliminate candidates; ranking criteria order the survivors.
Filters apply in order; the first ranking criterion decides the winner (later
rankings break ties).

Criteria:

``reachable``            the owner can physically reach the candidate
                         (locked doors respected — printer P3 for John)
``available``            the candidate reports a usable state
``no-queue``             the candidate has an empty service queue
``min-queue``            rank by ascending queue length
``closest-to(EXPR)``     rank by walking distance to a location expression
``best-quality(ATTR)``   rank by descending quality attribute
``quality(ATTR<=X)``     a quality-of-context contract: keep only candidates
                         whose ATTR satisfies the comparison (also ``>=``);
                         the paper's future-work item 2 asks for exactly such
                         "contracts on quality of the context information"
``any``                  keep all / no ordering (explicit default)

Textual form: criteria separated by ``;`` —
``"reachable; available; no-queue; closest-to(me)"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import QueryError
from repro.core.memo import decode_memo

FILTER_KINDS = ("reachable", "available", "no-queue", "any", "quality")
RANK_KINDS = ("closest-to", "min-queue", "best-quality")

_ARG_RE = re.compile(r"^([a-z-]+)\(\s*(.*?)\s*\)$")
_QUALITY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*(<=|>=)\s*([-+0-9.eE]+)$")


def _parse_quality_contract(argument: str):
    match = _QUALITY_RE.match(argument or "")
    if not match:
        raise QueryError(
            f"quality contract must look like 'attr<=5' or 'attr>=0.9', "
            f"got {argument!r}")
    return match.group(1), match.group(2), float(match.group(3))


@dataclass
class Candidate:
    """A candidate entity with the live context selection needs.

    Built by the Context Server when it executes a configuration: the
    profile tells us what the entity is, ``room``/``distance`` come from the
    Location Service, ``status`` from the entity's latest retained status
    event, ``reachable`` from the topology model with the owner's access
    rights applied.
    """

    entity_id: str
    name: str
    room: Optional[str] = None
    distance: float = float("inf")
    reachable: bool = True
    available: bool = True
    queue_length: int = 0
    quality: Dict[str, float] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Criterion:
    """One selection step: a filter or a ranking."""

    kind: str
    argument: Optional[str] = None
    #: a ``quality`` criterion's contract (attr, op, threshold), parsed once
    _contract: Optional[Tuple[str, str, float]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FILTER_KINDS + RANK_KINDS:
            raise QueryError(f"unknown Which criterion: {self.kind!r}")
        if self.kind in ("closest-to", "best-quality") and not self.argument:
            raise QueryError(f"criterion {self.kind!r} needs an argument")
        if self.kind == "quality":
            object.__setattr__(self, "_contract", _parse_quality_contract(self.argument))

    @property
    def is_filter(self) -> bool:
        return self.kind in FILTER_KINDS

    def keep(self, candidate: Candidate) -> bool:
        if self.kind == "any":
            return True
        if self.kind == "reachable":
            return candidate.reachable
        if self.kind == "available":
            return candidate.available
        if self.kind == "no-queue":
            return candidate.queue_length == 0
        if self.kind == "quality":
            return self.quality_satisfied(candidate.quality)
        raise AssertionError(f"not a filter: {self.kind}")  # pragma: no cover

    def quality_satisfied(self, quality: Dict[str, float]) -> bool:
        """Evaluate a quality contract against a quality map.

        Missing attributes fail the contract (no evidence, no promise).
        Shared by candidate selection and by the resolver's provider
        predicate, so a subscription's contract constrains which providers
        may even enter the configuration.
        """
        attr, op, threshold = self._contract
        if attr not in quality:
            return False
        value = quality[attr]
        return value <= threshold if op == "<=" else value >= threshold

    def sort_key(self, candidate: Candidate) -> float:
        if self.kind == "closest-to":
            return candidate.distance
        if self.kind == "min-queue":
            return float(candidate.queue_length)
        if self.kind == "best-quality":
            # descending quality == ascending negated value
            return -candidate.quality.get(self.argument, float("-inf"))
        raise AssertionError(f"not a ranking: {self.kind}")  # pragma: no cover

    def __str__(self) -> str:
        return f"{self.kind}({self.argument})" if self.argument else self.kind


@dataclass(frozen=True)
class WhichClause:
    """An ordered pipeline of selection criteria."""

    criteria: Tuple[Criterion, ...] = ()

    @classmethod
    def of(cls, *criteria: Criterion) -> "WhichClause":
        return cls(tuple(criteria))

    @classmethod
    def any(cls) -> "WhichClause":
        return cls((Criterion("any"),))

    @classmethod
    def closest_to(cls, expr_text: str = "me") -> "WhichClause":
        return cls((Criterion("closest-to", expr_text),))

    # -- application ----------------------------------------------------------

    def apply(self, candidates: List[Candidate]) -> List[Candidate]:
        """Filter then rank; returns survivors best-first."""
        survivors = list(candidates)
        rankings: List[Criterion] = []
        for criterion in self.criteria:
            if criterion.is_filter:
                survivors = [c for c in survivors if criterion.keep(c)]
            else:
                rankings.append(criterion)
        if rankings:
            survivors.sort(key=lambda c: tuple(r.sort_key(c) for r in rankings))
        return survivors

    def select(self, candidates: List[Candidate]) -> Optional[Candidate]:
        """The single best candidate, or None when all are filtered out."""
        survivors = self.apply(candidates)
        return survivors[0] if survivors else None

    @property
    def location_argument(self) -> Optional[str]:
        """The closest-to expression, if any (the CS resolves it up front)."""
        for criterion in self.criteria:
            if criterion.kind == "closest-to":
                return criterion.argument
        return None

    def quality_contracts(self) -> List[Criterion]:
        """The QoC contracts in this clause (applied to providers too)."""
        return [criterion for criterion in self.criteria
                if criterion.kind == "quality"]

    # -- text form ----------------------------------------------------------------

    def __str__(self) -> str:
        if not self.criteria:
            return "any"
        return "; ".join(str(criterion) for criterion in self.criteria)

    @classmethod
    @decode_memo
    def parse(cls, text: str) -> "WhichClause":
        """Memoised by text (:mod:`repro.core.memo`): the parse is pure and
        the clause is a tuple of frozen criteria, so callers share one."""
        text = text.strip()
        if not text or text == "any":
            return cls.any()
        criteria = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            match = _ARG_RE.match(chunk)
            if match:
                criteria.append(Criterion(match.group(1), match.group(2)))
            else:
                criteria.append(Criterion(chunk))
        if not criteria:
            return cls.any()
        return cls(tuple(criteria))
