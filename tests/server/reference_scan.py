"""The What-clause linear scan, kept as the What index's equivalence reference.

Every profile and advertisement query used to test every registration with
``_what_matches`` and sort the survivors by name; that was
``context_server.py`` before the Registrar answered the What clause from its
name, tag and offered-type buckets (``Registrar.matching``).
``test_registrar.py``, the guard test and the Hypothesis sequence property
(``tests/properties/test_prop_query_index.py``) require the index to select
the same records in the same order.
"""

from __future__ import annotations

from typing import List

from repro.query.model import WhatClause
from repro.server.registrar import RegistrationRecord, Registrar


def what_matches(what: WhatClause, record: RegistrationRecord) -> bool:
    profile = record.profile
    if what.kind == "named":
        return what.value in (profile.name, profile.entity_id.hex)
    if what.kind == "entity-type":
        if profile.attributes.get("device") == what.value:
            return True
        if profile.entity_class.value == what.value:
            return True
        return any(ad.service_name == what.value
                   or ad.service_name == f"{what.value}-service"
                   for ad in record.advertisements)
    # pattern: does the profile output something of the wanted type name?
    return profile.provides_type(what.pattern.type_name)


def scan_matching(registrar: Registrar,
                  what: WhatClause) -> List[RegistrationRecord]:
    """Every registration tested, survivors sorted by name (stable)."""
    matches = [record for record in registrar.records()
               if what_matches(what, record)]
    matches.sort(key=lambda record: record.profile.name)
    return matches
