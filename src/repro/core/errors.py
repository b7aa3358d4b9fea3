"""Exception hierarchy for the SCI middleware.

Every error raised by the library derives from :class:`SCIError`, so callers
can catch one base class at the facade boundary. Subclasses mirror the
subsystems: routing (SCINET), registration (Registrar), queries, composition
and location modelling.
"""


class SCIError(Exception):
    """Base class for all errors raised by the SCI middleware."""


class RoutingError(SCIError):
    """A message could not be routed through the SCINET overlay."""


class RegistrationError(SCIError):
    """An entity could not be registered or deregistered with a Registrar."""


class QueryError(SCIError):
    """A query is malformed or cannot be interpreted."""


class QueryParseError(QueryError):
    """The XML (Figure 6) wire form of a query could not be parsed."""


class CompositionError(SCIError):
    """A configuration graph could not be built or instantiated."""


class NoProviderError(CompositionError):
    """No Context Entity (or chain of CEs) can provide a requested type.

    Raised by the Query Resolver when backward chaining over CE profiles
    bottoms out without reaching sensor-level data sources.
    """

    def __init__(self, wanted, partial_chain=()):
        self.wanted = wanted
        self.partial_chain = tuple(partial_chain)
        chain = " <- ".join(str(step) for step in self.partial_chain)
        detail = f" (while satisfying: {chain})" if chain else ""
        super().__init__(f"no provider for {wanted}{detail}")


class CycleError(CompositionError):
    """Type matching produced a cyclic dependency between Context Entities."""


class LocationError(SCIError):
    """A location expression or model conversion is invalid."""


class TransportError(SCIError):
    """A message could not be delivered by the simulated transport."""
