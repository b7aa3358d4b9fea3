"""The SCI query model (Section 4.3, Figure 6).

"There are five sections central to the formation of a query": What (entity
type, named entity, or an information pattern), Where (a location constraint
in the intermediate location language), When (the temporal conditions under
which the configuration executes), Which (qualitative selection among
multiple candidates) and the mode (profile request, event subscription,
one-time subscription, advertisement request).

:mod:`repro.query.model` is the object model, :mod:`repro.query.language`
the XML wire format matching Figure 6, :mod:`repro.query.temporal` the When
conditions and :mod:`repro.query.selection` the Which policies.
"""

from repro.query.model import Query, QueryMode, WhatClause, QueryBuilder
from repro.query.temporal import WhenClause
from repro.query.selection import WhichClause, Criterion, Candidate
from repro.query.language import query_to_xml, query_from_xml
from repro.location.language import parse_location

#: the four memoised clause parsers (:mod:`repro.core.memo`), by clause;
#: each has ``cache_info()`` and ``cache_clear()``
CLAUSE_PARSERS = {
    "what": WhatClause.parse,
    "where": parse_location,
    "when": WhenClause.parse,
    "which": WhichClause.parse,
}

__all__ = [
    "CLAUSE_PARSERS",
    "Query",
    "QueryMode",
    "WhatClause",
    "QueryBuilder",
    "WhenClause",
    "WhichClause",
    "Criterion",
    "Candidate",
    "query_to_xml",
    "query_from_xml",
]
