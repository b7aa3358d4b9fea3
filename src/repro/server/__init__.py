"""Ranges, Context Servers and the core Context Utilities (Section 3.1).

"Each Range is governed by its own individual Context Server (CS), the hub
for the Range. A CS is considered to be a secure, always on central server
for management of contextual information within a Range." The CS manages the
six core Context Utilities; four of them live here (Registrar, Range
Service, Profile Manager, and the Context Server's own Query Resolver
plumbing), while the Event Mediator and Location Service live in
:mod:`repro.events` and :mod:`repro.location`.
"""

from repro.server.range import RangeDefinition
from repro.server.registrar import Registrar, RegistrationRecord
from repro.server.range_service import RangeService
from repro.server.profile_manager import ProfileManager
from repro.server.context_server import ContextServer

__all__ = [
    "RangeDefinition",
    "Registrar",
    "RegistrationRecord",
    "RangeService",
    "ProfileManager",
    "ContextServer",
]
