"""The context-type ontology: semantic types, representations, converters.

The paper's critique of iQueue (Section 2) is that purely *syntactic* data
matching cannot exploit "data sources that have widely different syntactic
descriptions but are semantically similar" — e.g. location derived from door
sensors versus location derived from wireless detection. SCI's answer
(Sections 3.2/3.3) is type matching over CE profiles plus an "intermediate
location language" for interoperating representations.

We make that concrete with a two-level type system:

* a **semantic type** (:class:`ContextType`) names *what the information
  means* ("location", "path", "temperature", "printer-status") and may have
  ``is_a`` parents ("gps-position" is-a "location");
* a **representation** names *how it is encoded* ("symbolic", "geometric",
  "signal-strength", "celsius", ...).

A :class:`TypeSpec` pairs the two, optionally narrowed to a *subject* (whose
location?) and carrying quality-of-context attributes. A :class:`TypeRegistry`
stores the ontology plus :class:`Converter` edges between representations; the
query resolver asks the registry whether an offered spec can satisfy a wanted
spec, possibly through a chain of converters, and splices converter entities
into the configuration when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import SCIError
from repro.core.memo import decode_memo


class TypeError_(SCIError):
    """An operation referenced an unknown semantic type or representation."""


#: Wildcard subject: the spec applies to any entity.
ANY_SUBJECT = None

#: what a wire ``subject`` may be: providers are indexed by it and the
#: mediator keys retained events on it, so it must be a hashable scalar
SCALAR_SUBJECTS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class ContextType:
    """A semantic context type in the ontology.

    ``parent`` is the ``is_a`` edge: a value of a subtype can always stand in
    where the parent type is wanted (e.g. ``gps-position`` is-a
    ``location``).
    """

    name: str
    parent: Optional[str] = None
    description: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class TypeSpec:
    """A concrete (semantic type, representation) pair, possibly bound.

    ``subject`` narrows the spec to information *about* one entity — the
    resolver binds it while chaining (Figure 3: the objLocationCE output is
    ``location`` *of John*). ``None`` means unbound / any subject.

    ``quality`` carries quality-of-context attributes declared by a profile
    (accuracy in metres, freshness in seconds, ...) which the Which clause of
    a query can select on.
    """

    type_name: str
    representation: str = "any"
    subject: Optional[object] = ANY_SUBJECT
    quality: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def of(
        cls,
        type_name: str,
        representation: str = "any",
        subject: Optional[object] = ANY_SUBJECT,
        quality: Optional[Mapping[str, float]] = None,
    ) -> "TypeSpec":
        """Ergonomic constructor accepting a quality mapping."""
        items = tuple(sorted((quality or {}).items()))
        return cls(type_name, representation, subject, items)

    @property
    def quality_map(self) -> Dict[str, float]:
        return dict(self.quality)

    def bind(self, subject: object) -> "TypeSpec":
        """Return a copy of this spec narrowed to ``subject``."""
        return TypeSpec(self.type_name, self.representation, subject, self.quality)

    def with_representation(self, representation: str) -> "TypeSpec":
        return TypeSpec(self.type_name, representation, self.subject, self.quality)

    def __str__(self) -> str:
        subject = f"@{self.subject}" if self.subject is not ANY_SUBJECT else ""
        return f"{self.type_name}[{self.representation}]{subject}"


def spec_from_wire(data: Mapping[str, Any]) -> TypeSpec:
    """An event's or a profile's wire spec, one shared ``TypeSpec`` per
    distinct spec (:mod:`repro.core.memo`). Raises ``KeyError`` or
    ``TypeError`` for one that could not key a provider index or a retained
    store. The key tells apart scalars Python calls equal but JSON writes
    differently (``1``, ``1.0``, ``True``; ``0.0``, ``-0.0``), so a shared
    spec re-encodes to the JSON its sender wrote."""
    type_name, representation = data["type"], data["representation"]
    subject = data["subject"]
    if not (isinstance(type_name, str) and isinstance(representation, str)):
        raise TypeError("type and representation must be strings")
    if not isinstance(subject, SCALAR_SUBJECTS):
        raise TypeError(f"subject must be a string, number, boolean or "
                        f"null, got {type(subject).__name__}")
    quality = tuple(map(tuple, data.get("quality", ())))
    return shared_spec(type_name, representation, subject, _exact(subject),
                       quality, tuple(map(_exact, chain.from_iterable(
                           quality))) if quality else ())


def _exact(scalar: object) -> object:
    return repr(scalar) if type(scalar) is float else type(scalar)


@decode_memo
def shared_spec(type_name: str, representation: str, subject: object,
                _subject_key: object, quality: tuple,
                _quality_key: tuple) -> TypeSpec:
    """The memo behind :func:`spec_from_wire`: one spec per exact key."""
    return TypeSpec(type_name, representation, subject, quality)


@dataclass(frozen=True)
class Converter:
    """A registered conversion between two representations of one type.

    ``cost`` is an abstract penalty the resolver minimises when several
    converter chains exist; ``fidelity`` in (0, 1] scales quality attributes
    of converted data (converting symbolic -> geometric loses precision).
    """

    type_name: str
    source_representation: str
    target_representation: str
    fn: Callable[[object], object]
    cost: float = 1.0
    fidelity: float = 1.0

    def apply(self, value: object) -> object:
        return self.fn(value)

    def __str__(self) -> str:
        return (
            f"{self.type_name}:{self.source_representation}"
            f"->{self.target_representation}"
        )


class TypeRegistry:
    """The ontology: semantic types, is_a edges and converter edges.

    The registry answers the resolver's central question,
    :meth:`conversion_path`: can an *offered* spec satisfy a *wanted* spec,
    and through which converters?
    """

    def __init__(self):
        self._types: Dict[str, ContextType] = {}
        # (type_name, source_repr) -> list of converters out of that repr
        self._converters: Dict[Tuple[str, str], List[Converter]] = {}
        # Memos of the subject-free answers, cleared by every register*:
        # type -> is_a chain, and (offered type, offered repr, wanted type,
        # wanted repr) -> cheapest converter chain or None. Lookups that
        # raise (unknown type, is_a cycle) are never stored.
        self._chains: Dict[str, Tuple[str, ...]] = {}
        self._paths: Dict[Tuple[str, str, str, str],
                          Optional[Tuple[Converter, ...]]] = {}

    # -- ontology -----------------------------------------------------------

    def register(self, ctype: ContextType) -> ContextType:
        if ctype.parent is not None and ctype.parent not in self._types:
            raise TypeError_(f"unknown parent type: {ctype.parent!r}")
        self._types[ctype.name] = ctype
        self._forget()
        return ctype

    def define(self, name: str, parent: Optional[str] = None, description: str = "") -> ContextType:
        """Shorthand for :meth:`register`."""
        return self.register(ContextType(name, parent, description))

    def get(self, name: str) -> ContextType:
        try:
            return self._types[name]
        except KeyError:
            raise TypeError_(f"unknown context type: {name!r}") from None

    def known(self, name: str) -> bool:
        return name in self._types

    def ancestors(self, name: str) -> List[str]:
        """Return ``name`` followed by its is_a ancestors, root last."""
        return list(self._chain(name))

    def _chain(self, name: str) -> Tuple[str, ...]:
        chain = self._chains.get(name)
        if chain is None:
            walked: List[str] = []
            cursor: Optional[str] = name
            while cursor is not None:
                if cursor in walked:
                    raise TypeError_(f"is_a cycle at {cursor!r}")
                walked.append(cursor)
                cursor = self.get(cursor).parent
            chain = self._chains[name] = tuple(walked)
        return chain

    def is_subtype(self, candidate: str, of: str) -> bool:
        """True when ``candidate`` is ``of`` or one of its descendants."""
        return of in self._chain(candidate)

    def _forget(self) -> None:
        self._chains.clear()
        self._paths.clear()

    # -- converters ---------------------------------------------------------

    def register_converter(self, converter: Converter) -> Converter:
        self.get(converter.type_name)  # validates the type exists
        key = (converter.type_name, converter.source_representation)
        self._converters.setdefault(key, []).append(converter)
        self._forget()
        return converter

    def add_converter(
        self,
        type_name: str,
        source: str,
        target: str,
        fn: Callable[[object], object],
        cost: float = 1.0,
        fidelity: float = 1.0,
    ) -> Converter:
        """Shorthand for :meth:`register_converter`."""
        return self.register_converter(
            Converter(type_name, source, target, fn, cost, fidelity)
        )

    def converters_from(self, type_name: str, representation: str) -> List[Converter]:
        return list(self._converters.get((type_name, representation), []))

    def conversion_path(
        self, offered: TypeSpec, wanted: TypeSpec
    ) -> Optional[List[Converter]]:
        """Converters turning ``offered`` into something satisfying ``wanted``.

        Returns ``[]`` for a direct match, a cheapest converter chain when
        representations differ but are bridgeable, or ``None`` when the specs
        are semantically or subject-wise incompatible.

        Semantic rule: ``offered.type_name`` must be ``wanted.type_name`` or
        a subtype of it. Subject rule: a wanted subject matches an offered
        subject that is equal or unbound (the provider can be parameterised).
        Representation ``"any"`` on either side matches without conversion.
        Converter chains are searched over the *wanted* (super)type's
        converter edges as well as the offered subtype's own, cheapest-first
        (uniform-cost search; converter graphs are tiny).

        Everything but the subject rule depends on the two (type,
        representation) pairs alone, so that part is memoised per pair until
        the next :meth:`register` or :meth:`register_converter`; the subject
        rule runs on every call.
        """
        key = (offered.type_name, offered.representation,
               wanted.type_name, wanted.representation)
        try:
            path = self._paths[key]
        except KeyError:
            path = self._paths[key] = self._search(*key)
        if path is None:
            return None
        if wanted.subject is not ANY_SUBJECT and offered.subject is not ANY_SUBJECT:
            if wanted.subject != offered.subject:
                return None
        return list(path)

    def _search(self, offered_type: str, offered_repr: str, wanted_type: str,
                wanted_repr: str) -> Optional[Tuple[Converter, ...]]:
        if not self.is_subtype(offered_type, wanted_type):
            return None
        if "any" in (offered_repr, wanted_repr) or offered_repr == wanted_repr:
            return ()
        # Uniform-cost search over representations reachable from the offer.
        # Converters registered against any ancestor type apply.
        applicable_types = self._chain(offered_type)
        frontier: List[Tuple[float, str, Tuple[Converter, ...]]] = [
            (0.0, offered_repr, ())
        ]
        best_cost: Dict[str, float] = {offered_repr: 0.0}
        while frontier:
            frontier.sort(key=lambda item: item[0])
            cost, representation, chain = frontier.pop(0)
            if representation == wanted_repr:
                return chain
            for type_name in applicable_types:
                for converter in self.converters_from(type_name, representation):
                    next_cost = cost + converter.cost
                    target = converter.target_representation
                    if next_cost < best_cost.get(target, float("inf")):
                        best_cost[target] = next_cost
                        frontier.append((next_cost, target, chain + (converter,)))
        return None

    def satisfies(self, offered: TypeSpec, wanted: TypeSpec) -> bool:
        """True when ``offered`` can satisfy ``wanted`` (possibly via converters)."""
        return self.conversion_path(offered, wanted) is not None


def standard_registry() -> TypeRegistry:
    """The ontology used throughout the paper's scenarios.

    Covers the Figure-3 path example (door sensors, object location, path),
    the CAPA scenario (printer status and capabilities) and the Section-3.3
    location representations. Converters between location representations are
    placeholders at this level — the real geometry-aware conversions live in
    :mod:`repro.location.converters`, which replaces these functions when a
    deployment has a building model.
    """
    registry = TypeRegistry()
    registry.define("presence", description="an identified object passed a fixed sensor")
    registry.define("location", description="where an entity is")
    registry.define("gps-position", parent="location")
    registry.define("path", description="a route between two locations")
    registry.define("temperature", description="ambient temperature reading")
    registry.define("identity", description="an entity identifier")
    registry.define("printer-status", description="availability of a printer")
    registry.define("print-service", description="ability to print documents")
    registry.define("occupancy", description="how many entities are in a place")
    registry.define("network-signal", description="wireless signal observation")
    return registry
